//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package pdm

// MmapDisk on platforms without mmap support is a thin wrapper over
// FileDisk: the same on-disk format and semantics, no zero-copy views.
type MmapDisk struct {
	*FileDisk
}

// newMmapDisk creates (truncating) a disk at path with block size b keys,
// falling back to the read/write FileDisk implementation.
func newMmapDisk(path string, b int) (*MmapDisk, error) {
	fd, err := NewFileDisk(path, b)
	if err != nil {
		return nil, err
	}
	return &MmapDisk{fd}, nil
}

// ZeroCopy implements ZeroCopyDisk: the fallback cannot serve views.
func (d *MmapDisk) ZeroCopy() bool { return false }

// ReadBlockZero implements ZeroCopyDisk.
func (d *MmapDisk) ReadBlockZero(off int) ([]int64, error) {
	return nil, errNoZeroCopy
}

// WriteBlockZero implements ZeroCopyDisk.
func (d *MmapDisk) WriteBlockZero(off int) ([]int64, error) {
	return nil, errNoZeroCopy
}
