#!/usr/bin/env python3
"""Build and run the simulator host-cost benchmark.

One run:

    python3 perfbench/run.py --workload lockstorm --seed 1 --seconds 30 --trace 0

builds the Go benchmark in perfbench/ against the repository's source
(build cache and binary under .bench_build/ of the checkout), runs it
from the checkout root and passes its output through. The last line of
standard output is the JSON result.

Steadiness report:

    python3 perfbench/run.py --steady 10 --workload sweep [--first-seed 1]

runs the workload (or "all") that many times, each with the next seed, and
prints for every metric the median, the quartiles, the spread between them
as a share of the median (against the bound in BENCHMARK.json) and the
range, plus each run's host steal share, GOMAXPROCS and the goroutines
left alive after its passes.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; stop the benchmark process before that.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    env.pop("GOMAXPROCS", None)
    return env


def build():
    """Builds the benchmark binary; returns False with the reason on stderr."""
    if shutil.which("go") is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    try:
        proc = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=os.path.join(ROOT, "perfbench"), env=go_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=800)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return False
    if proc.returncode != 0:
        print("run.py: build failed:\n" + proc.stdout, file=sys.stderr)
        return False
    return True


def run_once(workload, seed, seconds, trace, capture):
    """Runs the benchmark binary once; returns (exit code, stdout, stderr)."""
    args = [BINARY, "-workload", workload, "-seed", str(seed),
            "-seconds", str(seconds), "-trace", str(trace)]
    out = subprocess.PIPE if capture else None
    # A session of its own lets a timeout stop the benchmark's set-up
    # children along with it.
    proc = subprocess.Popen(args, cwd=ROOT, env=go_env(), stdout=out,
                            stderr=out, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3, "", ""
    return proc.returncode, stdout or "", stderr or ""


def spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def steady(workloads, runs, first_seed, seconds, trace):
    bound = {m["name"]: m.get("bound") for m in spec().get("end_to_end", [])}
    ok = True
    for w in workloads:
        values, diags = {}, []
        for i in range(runs):
            seed = first_seed + i
            code, stdout, stderr = run_once(w, seed, seconds, trace, True)
            lines = stdout.strip().splitlines()
            if code != 0 or not lines:
                sys.stderr.write(stderr)
                print("%s seed %d: exit %d" % (w, seed, code))
                return False
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                ok = False
                print("%s seed %d: %d of %d passes failed" % (w, seed, res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            diag = [l[5:] for l in stderr.splitlines() if l.startswith("diag ")]
            d = json.loads(diag[-1]) if diag else {"seed": seed}
            d["values"] = {k: m["value"] for k, m in res["metrics"].items()}
            diags.append(d)
        print("\n%s: %d runs, seeds %d..%d" % (w, runs, first_seed, first_seed + runs - 1))
        for d in diags:
            if "steal_share" in d:
                print("  seed %-4s gomaxprocs %s steal %5.2f%% passes %-3s goroutines %-4s %s" % (
                    d["seed"], d["gomaxprocs"], 100 * d["steal_share"], d["passes"],
                    d.get("goroutines_after", "?"),
                    " ".join("%s=%.4g" % kv for kv in sorted(d["values"].items()))))
        print("  %-34s %12s %12s %12s %8s %8s %12s %12s" % (
            "metric", "median", "q1", "q3", "iqr/med", "bound", "min", "max"))
        for name in sorted(values):
            vs = values[name]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            b = bound.get(name)
            flag = ""
            if b is not None and name != "setup_s":
                flag = "ok" if spread < b / 3 else ("within bound" if spread <= b else "TOO WIDE")
                ok = ok and spread <= b
            print("  %-34s %12.6g %12.6g %12.6g %7.2f%% %8s %12.6g %12.6g %s" % (
                name, med, q1, q3, 100 * spread, "-" if b is None else b, min(vs), max(vs), flag))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="lockstorm, remedies, apps or sweep; with --steady, all = those in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="run N times with consecutive seeds and report the spread")
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    if not build():
        return 2
    if a.steady:
        ws = [a.workload]
        if a.workload == "all":
            ws = [w["name"] for w in spec().get("workloads", [])]
        return 0 if steady(ws, a.steady, a.first_seed, a.seconds, a.trace) else 1
    code, _, _ = run_once(a.workload, a.seed, a.seconds, a.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
