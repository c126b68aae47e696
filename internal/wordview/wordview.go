// Package wordview is the one place that reinterprets []int64 storage as
// bytes.  Every binary format in the tree (FileDisk and MmapDisk scratch
// files, the wire's binary page body) stores words as little-endian int64s,
// so on a little-endian host a word slice's memory already is its encoding
// and I/O moves the caller's words in place; a big-endian host uses the
// same views and byte-swaps with LE (le.go / be.go).
package wordview

import "unsafe"

// Bytes returns w's storage as 8·len(w) bytes, in host byte order.
func Bytes(w []int64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
}

// Words reinterprets b (8-aligned, len a multiple of 8 — a mapped page or
// the Bytes of a word slice) as a []int64 sharing the same storage.
func Words(b []byte) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}
