package guest

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestFileStoreCleanRunMatchesGolden(t *testing.T) {
	fs := NewFileStore(42)
	for i := 0; i < 50; i++ {
		fs.WriteNext()
	}
	if bad := fs.CompareGolden(); bad != nil {
		t.Fatalf("clean store differs from golden: %v", bad)
	}
	if fs.Len() != 50 {
		t.Fatalf("Len = %d", fs.Len())
	}
	fs.Remove(10)
	if fs.Len() != 49 {
		t.Fatalf("Len after remove = %d", fs.Len())
	}
}

func TestFileStoreCorruptionDetected(t *testing.T) {
	fs := NewFileStore(42)
	for i := 0; i < 10; i++ {
		fs.WriteNext()
	}
	if !fs.Corrupt(7) {
		t.Fatal("Corrupt failed with files present")
	}
	bad := fs.CompareGolden()
	if len(bad) != 1 {
		t.Fatalf("golden mismatches = %v, want exactly 1", bad)
	}
}

func TestFileStoreCorruptEmpty(t *testing.T) {
	fs := NewFileStore(1)
	if fs.Corrupt(3) {
		t.Fatal("Corrupt succeeded on empty store")
	}
}

func TestFileStoreSeedsDiffer(t *testing.T) {
	a, b := NewFileStore(1), NewFileStore(2)
	if a.contentDigest(0) == b.contentDigest(0) {
		t.Fatal("different seeds produced identical content")
	}
}

// TestPropertyFileStoreDetectsAnyCorruption: whatever the pick value and
// store population, a corruption is always caught by the golden check and
// never more than one file is affected.
func TestPropertyFileStoreDetectsAnyCorruption(t *testing.T) {
	f := func(seed uint64, writes uint8, removes uint8, pick uint64) bool {
		fs := NewFileStore(seed)
		n := int(writes%40) + 1
		for i := 0; i < n; i++ {
			fs.WriteNext()
		}
		for i := 0; i < int(removes%10) && fs.Len() > 1; i++ {
			fs.Remove(i)
		}
		if len(fs.CompareGolden()) != 0 {
			return false
		}
		if !fs.Corrupt(pick) {
			return false
		}
		return len(fs.CompareGolden()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlkBenchSDCCaughtByGoldenComparison(t *testing.T) {
	// End to end: corruption injected into a running BlkBench guest's
	// files fails the verdict via the mechanical golden comparison.
	w, _, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: BlkBench, Dom: 1, CPU: 1, Duration: 300 * time.Millisecond})
	vm.Start()
	clk.RunUntil(150 * time.Millisecond)
	w.CorruptGuestData(1)
	if vm.OutputCorrupted {
		t.Fatal("BlkBench SDC used the flag instead of the file store")
	}
	clk.RunUntil(time.Second)
	ok, reason := vm.Verdict()
	if ok || !strings.Contains(reason, "golden") {
		t.Fatalf("verdict = %v %q", ok, reason)
	}
}
