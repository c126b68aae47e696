package pdm

import (
	"path/filepath"
	"testing"
)

// Backend micro-benchmarks: one block read or write per iteration on each
// disk backend, at a block size typical of the facade's default geometry.
// CI's short-bench leg runs these; the end-to-end pairing is bench/'s
// sort-file and sort-mmap workloads.

const benchBlockKeys = 1024 // 8 KiB blocks

func newBenchDisk(b *testing.B, kind string) Disk {
	b.Helper()
	var d Disk
	var err error
	switch kind {
	case "mem":
		d = NewMemDisk(benchBlockKeys)
	case "file":
		d, err = NewFileDisk(filepath.Join(b.TempDir(), "d0.bin"), benchBlockKeys)
	case "mmap":
		d, err = NewMmapDisk(filepath.Join(b.TempDir(), "d0.bin"), benchBlockKeys)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() }) //nolint:errcheck // bench teardown
	return d
}

func BenchmarkBackendWriteBlock(b *testing.B) {
	for _, kind := range []string{"mem", "file", "mmap"} {
		b.Run(kind, func(b *testing.B) {
			d := newBenchDisk(b, kind)
			blk := make([]int64, benchBlockKeys)
			for i := range blk {
				blk[i] = int64(i) * 11
			}
			const window = 64 // rewrite a fixed window: no unbounded growth
			b.SetBytes(benchBlockKeys * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.WriteBlock(i%window, blk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBackendReadBlock(b *testing.B) {
	for _, kind := range []string{"mem", "file", "mmap"} {
		b.Run(kind, func(b *testing.B) {
			d := newBenchDisk(b, kind)
			blk := make([]int64, benchBlockKeys)
			const window = 64
			for off := 0; off < window; off++ {
				if err := d.WriteBlock(off, blk); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(benchBlockKeys * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.ReadBlock(i%window, blk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
