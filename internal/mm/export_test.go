package mm

import "testing"

// Hooks for the external mm_test package, whose tests drive the campaign
// layer above mm and so cannot live inside package mm.

// PristineChunk returns a copy of the shared chunk unstored segments read
// as.
func PristineChunk() [chunkFrames]PageFrame { return pristine }

// ReplayDirtySeeds runs FuzzFrameTableDirtyTracking's seed corpus.
func ReplayDirtySeeds(t *testing.T) {
	for _, s := range dirtySeeds {
		runDirty(t, s.size, s.ops)
	}
}
