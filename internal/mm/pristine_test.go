package mm_test

import (
	"testing"

	"nilihype/internal/campaign"
	"nilihype/internal/mm"
)

// TestPristineChunkNeverWritten: every table of every goroutine reads its
// unstored segments from one shared chunk, so a single write into it would
// change what other tables read. After the dirty-tracking seed corpus and
// after an 8 GB campaign on four workers (whose concurrent accesses
// go test -race checks), the chunk must still hold only free, unowned
// descriptors.
func TestPristineChunkNeverWritten(t *testing.T) {
	check := func(after string) {
		t.Helper()
		for i, f := range mm.PristineChunk() {
			if f != (mm.PageFrame{Type: mm.FrameFree, Owner: mm.NoDomain}) {
				t.Fatalf("after %s: pristine descriptor %d = %+v", after, i, f)
			}
		}
	}
	mm.ReplayDirtySeeds(t)
	check("the dirty-tracking seeds")

	rc := campaign.ThroughputBenchConfig()
	rc.MemoryMB = 8192
	c := campaign.Campaign{Base: rc, Runs: 8, Parallelism: 4}
	if s := c.Execute(); s.DetectedCount == 0 {
		t.Fatal("the campaign detected no fault, so no recovery scanned the table")
	}
	check("an 8 GB campaign")
}
