package records

import (
	"bytes"
	"testing"

	"repro/internal/pdm"
)

// FuzzRecordsPermutation drives Permute with fuzzer-shaped record sets —
// payload lengths (including empty payloads) and the permutation both come
// from the input bytes — and checks the permutation-layer invariants: every
// output payload is byte-identical to the input record the permutation
// names, the accounted store size matches PayloadWords, the scatter keeps
// the disks busy (write steps within 5% of the read steps plus one stripe
// row per level — the property a block-at-a-time scatter breaks), and the
// run leaves no arena allocation behind.  The machine is small enough that
// most inputs need one or two scatter levels.
func FuzzRecordsPermutation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("\x20\x00\xff\x10payload-bytes\x00\x00\x07\x83"))
	f.Add(bytes.Repeat([]byte{0x5a, 0x00, 0x13}, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := int(next())%48 + 1
		payloads := make([][]byte, n)
		for i := range payloads {
			ln := int(next()) % 25 // empty payloads allowed
			p := make([]byte, ln)
			for j := range p {
				p[j] = next()
			}
			payloads[i] = p
		}
		// A permutation from the remaining bytes (Fisher–Yates with
		// fuzzer-chosen swaps; always a valid permutation).
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := int(next()) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}

		a, err := pdm.New(pdm.Config{
			Mem: 32, D: 2, B: 8,
			Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		res, err := Permute(a, payloads, perm)
		if err != nil {
			t.Fatalf("Permute: %v", err)
		}
		if res.Words != PayloadWords(payloads) {
			t.Fatalf("accounted %d words, payloads hold %d", res.Words, PayloadWords(payloads))
		}
		if len(res.Out) != n {
			t.Fatalf("got %d outputs for %d records", len(res.Out), n)
		}
		for j, i := range perm {
			if !bytes.Equal(res.Out[j], payloads[i]) {
				t.Fatalf("output %d: got %x, want payload %d = %x", j, res.Out[j], i, payloads[i])
			}
		}
		if w, r := res.IO.WriteSteps, res.IO.ReadSteps; float64(w) > 1.05*float64(r)+float64(res.Levels*a.D()) {
			t.Fatalf("%d write steps against %d read steps at %d levels", w, r, res.Levels)
		}
		if leak := a.Arena().InUse(); leak != 0 {
			t.Fatalf("permutation leaked %d arena keys", leak)
		}
	})
}
