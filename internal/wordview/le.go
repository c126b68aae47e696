//go:build amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || mipsle || mips64le || wasm

package wordview

// Native reports whether host words are little-endian, i.e. whether Bytes
// is already the stored encoding.
const Native = true

// LE converts w in place between host order and little-endian (the
// conversion is its own inverse): a no-op here.
func LE(w []int64) {}
