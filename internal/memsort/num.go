package memsort

// Isqrt returns the integer square root of n (the largest s with s·s ≤ n).
// The PDM algorithms use it to derive the paper's block size B = √M and the
// √M×√M submesh geometry; negative input returns 0.
func Isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	s := n
	prev := (s + 1) / 2
	for prev < s {
		s = prev
		prev = (s + n/s) / 2
	}
	return s
}

// CeilDiv returns ⌈a/b⌉ for positive b.
func CeilDiv(a, b int) int {
	return (a + b - 1) / b
}
