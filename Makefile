# Single entry point for local development and CI.
#
#   make check   fmt + build + vet + simcheck + test + perfbench — what CI gates on
#   make race    full test suite under the race detector
#   make shuffle test suite with shuffled execution order
#   make soak    quick chaos-experiment soak run
#   make figures regenerate the full figure output
#   make trace   record + validate a Perfetto trace of the fig8a probe
#   make parity  prove -jobs 1 and -jobs 4 output (mpistorm stdout, mpitrace tree) is byte-identical
#   make golden  prove the full sweep still prints full_run.txt byte for byte
#   make simcheck-bench  time the whole-module analysis; fail beyond 60s

GO ?= go

.PHONY: check fmt build vet simcheck simcheck-bench test perfbench race shuffle soak figures trace parity golden

check: fmt build vet simcheck test perfbench

# Formatting gate: every Go file in the module is gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: unformatted files:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

simcheck:
	$(GO) run ./cmd/simcheck ./...

# Analysis-latency gate: the interprocedural analyzers (call graph, lock
# order, hot-path allocation) must stay fast enough to sit in make check.
# Budget: 60 seconds for the whole module, binary prebuilt so the gate
# times the analysis, not the compiler.
simcheck-bench:
	$(GO) build -o /tmp/simcheck-bench ./cmd/simcheck
	@start=$$(date +%s); \
	/tmp/simcheck-bench ./... || exit 1; \
	end=$$(date +%s); took=$$((end-start)); \
	echo "simcheck ./... took $${took}s (budget 60s)"; \
	if [ $$took -gt 60 ]; then \
		echo "simcheck-bench: FAIL: whole-module analysis exceeded 60s"; exit 1; \
	fi

test:
	$(GO) test ./...

# perfbench/ is a nested module (the facade's only consumer outside the
# root module), so the root ./... patterns never compile it. Vet and test
# it here so a facade change that breaks it, or its pinned output
# digests, fails make check.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

shuffle:
	$(GO) test -shuffle=on ./...

soak:
	$(GO) build -o /tmp/mpistorm ./cmd/mpistorm
	/tmp/mpistorm -quick -experiment chaos

figures:
	$(GO) run ./cmd/mpistorm -experiment all -quick

trace:
	$(GO) run ./cmd/mpitrace -experiment fig8a -quick -check -out artifacts/trace

# Serial-equivalence gate: the full quick sweep at -jobs 1 (strictly
# serial path) and -jobs 4 (shared worker pool) must print identical
# bytes, and so must the crashy recovery experiment, the full-size
# sharded-runtime (vci) experiment, and the full-size progress-mode
# experiment on their own — rank crashes, heartbeat detection, the
# revoke/shrink error path, the per-VCI critical sections, the
# progress daemons/continuation dispatch, and the partitioned channels'
# lock-free readiness bitmaps are simulated state like any other, so the
# same seed must reproduce them bit-for-bit at any worker count. cmp
# exits non-zero on the first differing byte. mpitrace makes the same
# promise for its trace.json/profile.json tree, which diff -r checks.
parity:
	$(GO) build -o /tmp/mpistorm-parity ./cmd/mpistorm
	/tmp/mpistorm-parity -experiment all -quick -jobs 1 > /tmp/parity-jobs1.txt
	/tmp/mpistorm-parity -experiment all -quick -jobs 4 > /tmp/parity-jobs4.txt
	cmp /tmp/parity-jobs1.txt /tmp/parity-jobs4.txt
	/tmp/mpistorm-parity -experiment recovery -jobs 1 > /tmp/parity-recovery-jobs1.txt
	/tmp/mpistorm-parity -experiment recovery -jobs 4 > /tmp/parity-recovery-jobs4.txt
	cmp /tmp/parity-recovery-jobs1.txt /tmp/parity-recovery-jobs4.txt
	/tmp/mpistorm-parity -experiment vci -jobs 1 > /tmp/parity-vci-jobs1.txt
	/tmp/mpistorm-parity -experiment vci -jobs 4 > /tmp/parity-vci-jobs4.txt
	cmp /tmp/parity-vci-jobs1.txt /tmp/parity-vci-jobs4.txt
	/tmp/mpistorm-parity -experiment progress -jobs 1 > /tmp/parity-progress-jobs1.txt
	/tmp/mpistorm-parity -experiment progress -jobs 4 > /tmp/parity-progress-jobs4.txt
	cmp /tmp/parity-progress-jobs1.txt /tmp/parity-progress-jobs4.txt
	/tmp/mpistorm-parity -experiment partitioned -jobs 1 > /tmp/parity-partitioned-jobs1.txt
	/tmp/mpistorm-parity -experiment partitioned -jobs 4 > /tmp/parity-partitioned-jobs4.txt
	cmp /tmp/parity-partitioned-jobs1.txt /tmp/parity-partitioned-jobs4.txt
	$(GO) build -o /tmp/mpitrace-parity ./cmd/mpitrace
	rm -rf /tmp/parity-trace-jobs1 /tmp/parity-trace-jobs4
	/tmp/mpitrace-parity -experiment all -quick -jobs 1 -out /tmp/parity-trace-jobs1 > /dev/null
	/tmp/mpitrace-parity -experiment all -quick -jobs 4 -out /tmp/parity-trace-jobs4 > /dev/null
	diff -r /tmp/parity-trace-jobs1 /tmp/parity-trace-jobs4
	@echo "parity OK: -jobs 1 and -jobs 4 output is byte-identical"

# Full-output golden: the complete experiment sweep must print the
# committed full_run.txt byte for byte. Runtime refactors are gated on it
# (about 3 minutes on 2 vCPUs). cmp exits non-zero on the first differing
# byte.
golden:
	$(GO) build -o /tmp/mpistorm-golden ./cmd/mpistorm
	/tmp/mpistorm-golden -experiment all -jobs 2 > /tmp/golden-full.txt
	cmp /tmp/golden-full.txt full_run.txt
	@echo "golden OK: -experiment all matches full_run.txt"
