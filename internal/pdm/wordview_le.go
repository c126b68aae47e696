//go:build amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || mipsle || mips64le || wasm

package pdm

import (
	"os"
	"unsafe"
)

// canWordView reports whether file bytes can be reinterpreted as []int64
// in place.  The on-disk format is little-endian int64s, so on
// little-endian architectures a byte view IS a word view: MmapDisk serves
// mapped pages as words and FileDisk hands the caller's words straight to
// pread/pwrite, with no staging buffer and no per-word codec.
const canWordView = true

// bytesToWords reinterprets b (len a multiple of 8) as a []int64 sharing
// the same storage.  Mapped pages are 8-aligned (page-aligned, in fact),
// which is all int64 access requires here.
func bytesToWords(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// wordsToBytes is the inverse view: w's storage as 8·len(w) bytes.
func wordsToBytes(w []int64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
}

// readWordsAt fills dst from the little-endian int64s at byte offset off.
func readWordsAt(f *os.File, dst []int64, off int64) error {
	_, err := f.ReadAt(wordsToBytes(dst), off)
	return err
}

// writeWordsAt stores src as little-endian int64s at byte offset off.
func writeWordsAt(f *os.File, src []int64, off int64) error {
	_, err := f.WriteAt(wordsToBytes(src), off)
	return err
}
