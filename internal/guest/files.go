package guest

import "nilihype/internal/prng"

// FileStore models the files a BlkBench guest creates, copies, reads,
// writes and removes (§VI-A: "multiple 1MB files containing random
// content"), together with the golden copy the paper's failure criterion
// compares against ("one or more files produced by the benchmark are
// different from the ones in a golden copy").
//
// Content is represented by a deterministic 64-bit digest derived from the
// benchmark seed and the operation index — the same function generates the
// golden copy, so a clean run always matches, and any corruption of stored
// content (the SDC path) is caught mechanically by the comparison.
type FileStore struct {
	seed   uint64
	stored map[int]uint64
	nextID int
	// pathCorrupted models damage to the I/O path itself (ring state, a
	// buffer pointer): every subsequent transfer is corrupted, so the
	// damage survives the benchmark's file-removal window.
	pathCorrupted bool
}

// NewFileStore builds a file store for a benchmark seed.
func NewFileStore(seed uint64) *FileStore {
	return &FileStore{seed: seed, stored: make(map[int]uint64)}
}

// Reset rewinds the store to the state NewFileStore(seed) would produce,
// keeping the stored map's capacity — the forked-run path reseeds the same
// store every run instead of reallocating it.
func (fs *FileStore) Reset(seed uint64) {
	fs.seed = seed
	clear(fs.stored)
	fs.nextID = 0
	fs.pathCorrupted = false
}

// contentDigest is the deterministic "random content" of file id.
func (fs *FileStore) contentDigest(id int) uint64 {
	return prng.Scramble(fs.seed ^ uint64(id)*0x9e3779b97f4a7c15)
}

// WriteNext creates the next file with its generated content, returning
// the file ID. BlkBench's create/copy/write operations all funnel here —
// the stored digest models the data that went through the granted buffer
// to the disk.
func (fs *FileStore) WriteNext() int {
	id := fs.nextID
	fs.nextID++
	fs.stored[id] = fs.contentDigest(id)
	if fs.pathCorrupted {
		fs.stored[id] ^= 0x4
	}
	return id
}

// Remove deletes a file (BlkBench's remove phase). Removed files are no
// longer compared.
func (fs *FileStore) Remove(id int) { delete(fs.stored, id) }

// Len returns the number of live files.
func (fs *FileStore) Len() int { return len(fs.stored) }

// Corrupt applies silent data corruption: one stored file's content is
// flipped, and the I/O path is marked corrupted so subsequent transfers
// are damaged too (the corruption persists past the benchmark's remove
// phase). Returns false if there are no files yet.
func (fs *FileStore) Corrupt(pick uint64) bool {
	fs.pathCorrupted = true
	if len(fs.stored) == 0 {
		return false
	}
	// Deterministic pick: k-th live file in ID order.
	ids := make([]int, 0, len(fs.stored))
	for id := range fs.stored {
		ids = append(ids, id)
	}
	minID := ids[0]
	for _, id := range ids {
		if id < minID {
			minID = id
		}
	}
	target := -1
	k := int(pick % uint64(len(fs.stored)))
	for id := minID; ; id++ {
		if _, ok := fs.stored[id]; ok {
			if k == 0 {
				target = id
				break
			}
			k--
		}
	}
	fs.stored[target] ^= 1 << (pick % 64)
	return true
}

// CompareGolden re-generates every live file's expected content and
// returns the IDs that differ (§VI-A failure criterion 1). A clean store
// returns nil.
func (fs *FileStore) CompareGolden() []int {
	var bad []int
	for id, got := range fs.stored {
		if got != fs.contentDigest(id) {
			bad = append(bad, id)
		}
	}
	return bad
}
