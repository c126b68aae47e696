//go:build !(amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || mipsle || mips64le || wasm)

package pdm

import (
	"encoding/binary"
	"os"
)

// canWordView is false on big-endian architectures: the on-disk format is
// little-endian int64s, so file bytes cannot be reinterpreted in place —
// MmapDisk falls back to per-word encode/decode against the mapping and
// FileDisk to the explicit codec below.
const canWordView = false

// bytesToWords is unreachable when canWordView is false.
func bytesToWords(b []byte) []int64 {
	panic("pdm: bytesToWords on a big-endian architecture")
}

// readWordsAt fills dst from the little-endian int64s at byte offset off.
func readWordsAt(f *os.File, dst []int64, off int64) error {
	buf := make([]byte, 8*len(dst))
	if _, err := f.ReadAt(buf, off); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// writeWordsAt stores src as little-endian int64s at byte offset off.
func writeWordsAt(f *os.File, src []int64, off int64) error {
	buf := make([]byte, 8*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	_, err := f.WriteAt(buf, off)
	return err
}
