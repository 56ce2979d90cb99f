package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mpicontend/internal/telemetry"
)

// tracePins holds the sha256 digests of the quick probe's ProfileJSON and
// PerfettoJSON for one experiment id per probe shape, so a change to the
// recorder, the runtime's hook sites or the exporters that moves a byte of
// either artifact shows up here rather than only in a schema check.
var tracePins = map[string][2]string{
	"fig8a":       {"380e55d1e5589d5c756d1ee4dd3b5fb90c2d6ec159864985d3a03efdf07b0e0c", "395a0fea5fd7ca6bcd9dbd14683e9985b0374489f881635d271eb3b81bda42b9"},
	"fig2a":       {"311342ba6effb770d8e1cc5dd3d774f4bce056c78847e1c6c3d38658d5c41d40", "06dab7af328acea4c7726392f1f5761670999191a6a06d3db340f9faf018f697"},
	"fig6b":       {"c779c8ae81125905f8f869f117afd6b6481523d09547132087941c817751ff4b", "13f0018cf18f9412dce38fe6f983d520b85db6564640ec6b72a68a4705e9602e"},
	"fig9a":       {"cb2929fdfab4f0029799f013c4c09933c498cc05faeda5e943155a188f50e2e0", "0954755bf10b6342c15bdd95b3f79657d18151bc24c9a251a66819931880b2be"},
	"recovery":    {"f122a12830cedb6af4d87f798080133ff9c45c3e507b927cb4cf867a4aea4e3f", "ba83f477a11dd09b3be09573ab918e79f243d8f6cc98ba18a304e021f96704a8"},
	"vci":         {"7cca9a0957d684eebbc0dbe7320b5d9edbb6c789ed5540109fa703be2163c143", "ca9811d27c3d147c999a9ba017909be11e275caef9be1750a76c20b8fa9ebeac"},
	"progress":    {"90185c9b35ad8b77b6893d01933d49ea967e170705842753c72c57f9784192bc", "173e7c8de77f33f3c5384f1ea774a19621d0042ad4b4aaad907ca78890db5a9f"},
	"partitioned": {"70c30bdfe8a520a2ff4e9ef2e0acc433cea91ca5619cd38a1c655ec9ddfc385b", "e2fe0efd8b3d89453b43e6c69043320a3db462adf28dcbd1542dea8f704fbff8"},
	"chaos":       {"78bf7c449466d3c56976a4d37a1c1d5d5f0e005d11d787207d2b233dd4095226", "79d917ac297f03999e4e541b7587ef9499164351851bff990e03d1decb53d7be"},
}

// TestTraceOutputPins runs each pinned quick probe under a logging
// recorder and checks both exported artifacts against their digests.
func TestTraceOutputPins(t *testing.T) {
	for id, want := range tracePins {
		id, want := id, want
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rec := telemetry.NewTrace()
			if _, err := Probe(id, Options{Quick: true}, rec); err != nil {
				t.Fatal(err)
			}
			prof, err := rec.Profile().Marshal()
			if err != nil {
				t.Fatal(err)
			}
			for i, data := range [][]byte{prof, rec.Perfetto()} {
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != want[i] {
					t.Errorf("%s digest %s, want %s", [2]string{"ProfileJSON", "PerfettoJSON"}[i], got, want[i])
				}
			}
		})
	}
}
