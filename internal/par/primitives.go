package par

// Transpose writes the rows×cols row-major matrix src into dst in
// column-major order: dst[c·rows + r] = src[r·cols + c].  It is the
// unshuffle/scatter kernel of the (l,m)-merge passes, parallelized over
// destination columns so every worker writes a contiguous dst range.
func (p *Pool) Transpose(dst, src []int64, rows, cols int) {
	if len(dst) != rows*cols || len(src) != rows*cols {
		panic("par: Transpose size mismatch")
	}
	p.For(rows*cols, cols, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			base := c * rows
			for r := 0; r < rows; r++ {
				dst[base+r] = src[r*cols+c]
			}
		}
	})
}
