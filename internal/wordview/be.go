//go:build !(amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || mipsle || mips64le || wasm)

package wordview

import "math/bits"

// Native is false on big-endian hosts: Bytes needs LE before it is written
// and after it is read, and a mapped file cannot be viewed as words.
const Native = false

// LE converts w in place between host order and little-endian (the
// conversion is its own inverse): a byte swap per word.
func LE(w []int64) {
	for i, v := range w {
		w[i] = int64(bits.ReverseBytes64(uint64(v)))
	}
}
