package service

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// goldenDigests pins each ResultEpoch to the golden files of the build
// that defined it: a SHA-256 over internal/bench/testdata/golden_*.json
// (goldenDigest). A change that re-records the goldens adds the next
// epoch here and bumps ResultEpoch to it.
var goldenDigests = map[int]string{
	1: "4c5eb7530b67bfaffa599e083e1de1f4a8cde7ae8e8808b10962ed6bad9d0579",
	2: "5063d4ea6e75b43f81d355da7029e286097877070756abd8362b61d09b7a4139",
	3: "737708e25118aa4d5e552ec9328fb381a2538a24eb4bf3364e380c6c49b5a0ee",
}

// goldenDigest hashes every golden file, in name order, as its name, a
// NUL byte and its bytes.
func goldenDigest(t *testing.T) string {
	t.Helper()
	names, err := filepath.Glob("../bench/testdata/golden_*.json")
	if err != nil || len(names) == 0 {
		t.Fatalf("no golden files: %v", err)
	}
	h := sha256.New()
	for _, name := range names { // Glob returns names sorted
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(name)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestResultEpochPinsGoldens: the goldens pin the results of the
// current build, and ResultEpoch must name exactly them. Re-recording
// the goldens without bumping the epoch fails here, so results that
// changed can never be served under an earlier build's addresses.
func TestResultEpochPinsGoldens(t *testing.T) {
	got := goldenDigest(t)
	want, ok := goldenDigests[ResultEpoch]
	if !ok || got != want {
		t.Fatalf("golden files digest %s, but epoch %d pins %q: a change that re-records the goldens bumps ResultEpoch and pins the new digest here", got, ResultEpoch, want)
	}
	seen := map[string]int{}
	for e, d := range goldenDigests {
		if prev, dup := seen[d]; dup {
			t.Fatalf("epochs %d and %d pin the same goldens", prev, e)
		}
		seen[d] = e
	}
}
