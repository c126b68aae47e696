package pdm

import "errors"

// errNoZeroCopy is returned by the borrow APIs on disks (or platforms)
// that cannot serve direct block views.
var errNoZeroCopy = errors.New("pdm: disk does not support zero-copy block views")

// NewMmapDisks creates d mmap-backed disks named disk0000.bin … inside
// dir, with block size b keys.  The file naming matches NewFileDisks, so
// the two backends produce byte-identical scratch directories.
func NewMmapDisks(dir string, d, b int) ([]Disk, error) {
	return makeDisks(dir, d, b, newMmapDisk)
}

// NewMmapArray creates a PDM array of cfg.D mmap-backed disks named
// disk0000.bin … inside dir.
func NewMmapArray(cfg Config, dir string) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	disks, err := NewMmapDisks(dir, cfg.D, cfg.B)
	if err != nil {
		return nil, err
	}
	return NewWithDisks(cfg, disks)
}
