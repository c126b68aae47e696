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
		d, err = newMmapDisk(filepath.Join(b.TempDir(), "d0.bin"), benchBlockKeys)
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

// BenchmarkBackendLoadUnload is whole-stripe staging at the facade's
// default geometry for M = 64Ki (D = 64, B = 256): 4Mi keys loaded onto
// file disks and unloaded again per iteration — one preadv/pwritev run per
// disk, where a pipelined pass moves a few slot rows per call.
func BenchmarkBackendLoadUnload(b *testing.B) {
	cfg := Config{D: 64, B: 256, Mem: 1 << 16}
	a, err := NewFileArray(cfg, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	s, err := a.NewStripe(4 << 20)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]int64, s.Len())
	for i := range data {
		data[i] = int64(i) * 11
	}
	out := make([]int64, s.Len())
	b.SetBytes(2 * 8 * int64(s.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.LoadPadded(data, 0); err != nil {
			b.Fatal(err)
		}
		if err := s.UnloadInto(out); err != nil {
			b.Fatal(err)
		}
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
