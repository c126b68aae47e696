package plan

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/pdm"
)

// Alg is the repository's one algorithm identity (core.Alg): the short
// spelling the CLI and the pdmd service use, which is also how the planner
// names its candidates.
type Alg = core.Alg

// The candidate algorithms under the planner's names, in canonical
// preference order: when two candidates predict identical cost (ThreePass1
// vs ThreePass2 always do), the earlier one wins, which keeps Auto
// deterministic.
const (
	OnePass   = core.AlgOne
	Exp2      = core.AlgExp2
	Mesh2e    = core.AlgMesh2e
	LMM3      = core.AlgLMM3
	Mesh3     = core.AlgMesh3
	Exp3      = core.AlgExp3
	Six       = core.AlgSix
	Seven     = core.AlgSeven
	SevenMesh = core.AlgSevenMesh
	Radix     = core.AlgRadix
)

// Candidates is the canonical candidate order Explain evaluates.
var Candidates = []Alg{OnePass, Exp2, Mesh2e, LMM3, Mesh3, Exp3, Six, Seven, SevenMesh, Radix}

// Shape is the machine half of a planning question.
type Shape struct {
	// Mem is M in keys (a perfect square), B the block size (= √M for the
	// paper's algorithms), D the disk count.
	Mem, B, D int
	// Alpha is the confidence parameter of the probabilistic algorithms.
	Alpha float64
	// Workers is the resolved compute-pool width.
	Workers int
	// BlockLatency is the modeled per-block device latency (pdm.LatencyDisk).
	BlockLatency time.Duration
	// Backend is the disk backend kind ("" prices pdm.BackendMem).  It only
	// prices the per-block software overhead in the calibration.
	Backend pdm.Backend
	// Prefetch and WriteBehind are the streaming depths; nonzero depths let
	// the wall model overlap I/O with compute.
	Prefetch, WriteBehind int
}

// Stripe returns D·B, the keys one fully parallel I/O step moves.
func (s Shape) Stripe() int { return s.D * s.B }

// pipelined reports whether transfers overlap computation.
func (s Shape) pipelined() bool { return s.Prefetch > 0 || s.WriteBehind > 0 }

// Workload is the workload half of a planning question: the shape of a
// prospective sort the cost model needs, without the data.  It is also the
// spec the facade's Explain takes (repro.SortSpec) and echoes on GET /plan.
type Workload struct {
	// N is the record (key) count.
	N int `json:"n"`
	// PayloadBytes, when positive, plans a full-record sort whose records
	// carry payloads of (up to) this many bytes each: the external
	// permutation's distribution levels enter every candidate's prediction.
	PayloadBytes int `json:"payloadBytes,omitempty"`
	// PayloadWords, when positive, is the exact total payload volume, in
	// 8-byte words, the external permutation (internal/records) will move;
	// it overrides the PayloadBytes estimate (the scheduler sets it once a
	// job's payloads are materialized).  Both zero plans a bare key sort.
	PayloadWords int `json:"payloadWords,omitempty"`
	// Universe, when positive, hints integer keys in [0, Universe): the
	// Section 7 RadixSort becomes feasible and is chosen (it is what
	// SortInts and universe-bearing jobs run).
	Universe int64 `json:"universe,omitempty"`
	// Presorted ∈ [0, 1] hints how much existing order the input carries
	// (1 = fully sorted).  The paper's algorithms are oblivious — passes
	// don't change — but in-memory run formation on presorted data runs
	// measurably faster, so the hint scales predicted compute seconds.
	// Because it shifts the compute/I/O balance it can reorder the
	// calibrated ranking at the margin; the facade pins its Chosen to the
	// Auto path's fixed-calibration choice, which ignores the hint.
	Presorted float64 `json:"presorted,omitempty"`
}

// payloadWords resolves the payload volume the permutation will move.
func (w Workload) payloadWords() int {
	if w.PayloadWords == 0 && w.PayloadBytes > 0 {
		return w.N * ((w.PayloadBytes + 7) / 8)
	}
	return w.PayloadWords
}

// Candidate is one row of the ranked plan table (repro.PlanCandidate).
// Algorithm serializes as the short name ("exp2", "lmm3", "one", "radix",
// …); the analytic columns (passes, padded length, I/O words) are
// deterministic while the seconds columns come from the calibration.
type Candidate struct {
	Algorithm Alg  `json:"algorithm"`
	Feasible  bool `json:"feasible"`
	// Reason says why an infeasible candidate is out (capacity, geometry,
	// payload constraints).
	Reason string `json:"reason,omitempty"`

	// PaddedN is the on-disk key length the candidate's geometry forces —
	// the cost the capacity-threshold planner ignored.
	PaddedN int `json:"paddedN,omitempty"`
	// ReadPasses/WritePasses are the predicted pass counts over PaddedN,
	// seeded from the paper's closed forms plus the expected-fallback
	// surcharge M^−α·(fallback passes) for the probabilistic algorithms.
	ReadPasses  float64 `json:"readPasses,omitempty"`
	WritePasses float64 `json:"writePasses,omitempty"`
	// PermuteLevels and PermutePasses describe the payload permutation
	// (zero for bare key sorts): levels of distribution scatter, and
	// 2·(levels+1) passes over the padded payload store (a floor: the
	// segment headers each level also moves are not priced).
	PermuteLevels int     `json:"permuteLevels,omitempty"`
	PermutePasses float64 `json:"permutePasses,omitempty"`
	// IOWords is the total predicted transfer volume (reads + writes,
	// keys + payload store) in words; Steps the parallel I/O steps.
	IOWords int64 `json:"ioWords,omitempty"`
	Steps   int64 `json:"steps,omitempty"`

	// Seconds predicted by the calibration: I/O, compute, and the wall
	// combining them (overlapped when the shape pipelines).
	IOSeconds      float64 `json:"ioSeconds,omitempty"`
	ComputeSeconds float64 `json:"computeSeconds,omitempty"`
	Seconds        float64 `json:"seconds,omitempty"`
}

// Report is a ranked plan: every candidate, best first, plus the choice.
type Report struct {
	Shape    Shape
	Workload Workload
	Cal      Calibration
	// Candidates is sorted: feasible before infeasible, then by predicted
	// Seconds, ties by canonical order.
	Candidates []Candidate
	// Chosen is the cheapest feasible candidate under THIS report's
	// calibration, or Radix whenever the workload hints a universe
	// (integer jobs always take the §7 path).  The facade's Auto path
	// chooses with Choose — a fixed analytic calibration on the bare
	// geometry — so a calibrated report's ranking can disagree with the
	// algorithm Auto runs at the margin; repro.Machine.Explain pins its
	// Chosen to the Auto choice and leaves the disagreement visible in
	// the ranked table.
	Chosen Alg
}

// Candidate returns the row for alg (nil when absent).
func (r *Report) Candidate(alg Alg) *Candidate {
	for i := range r.Candidates {
		if r.Candidates[i].Algorithm == alg {
			return &r.Candidates[i]
		}
	}
	return nil
}

// Capacity returns the largest key count alg sorts on an M-key machine
// within its advertised pass count (the reliable regime at alpha for the
// probabilistic algorithms).  Radix has no capacity bound in the model and
// reports M².
func Capacity(mem int, alpha float64, alg Alg) int {
	sq := memsort.Isqrt(mem)
	switch alg {
	case OnePass:
		return mem
	case Mesh3, LMM3:
		return mem * sq
	case Exp2, Mesh2e:
		return core.ExpectedTwoPassRuns(mem, alpha) * mem
	case Exp3:
		l := largestGoodL(sq, func(l int) bool {
			return l*l*mem <= core.ExpectedThreePassCapacity(mem, alpha)
		})
		return l * l * mem
	case Six:
		n1 := core.ExpectedTwoPassRuns(mem, alpha)
		l := largestGoodL(sq, func(l int) bool { return l <= n1 })
		return l * l * mem
	case Seven, SevenMesh, Radix:
		return mem * mem
	default:
		return 0
	}
}

func largestGoodL(sq int, ok func(int) bool) int {
	best := 1
	for l := 1; l <= sq; l++ {
		if sq%l == 0 && ok(l) {
			best = l
		}
	}
	return best
}

// PadFor returns the smallest on-disk length ≥ n satisfying alg's geometry
// on an M-key machine.
func PadFor(mem int, alg Alg, n int) (int, error) {
	sq := memsort.Isqrt(mem)
	switch alg {
	case OnePass:
		if n > mem {
			return 0, fmt.Errorf("plan: %d keys exceed the one-pass capacity M = %d", n, mem)
		}
		return memsort.CeilDiv(n, sq) * sq, nil
	case Radix:
		return memsort.CeilDiv(n, sq) * sq, nil
	case Mesh3, LMM3, Exp2, Mesh2e:
		// N = l·M, and for the expected algorithms l must divide √M.
		l := memsort.CeilDiv(n, mem)
		if alg == Exp2 || alg == Mesh2e {
			for l <= sq && sq%l != 0 {
				l++
			}
		}
		if l > sq {
			return 0, fmt.Errorf("plan: %d keys exceed the %s capacity %d", n, string(alg), mem*sq)
		}
		return l * mem, nil
	case Exp3, Seven, Six, SevenMesh:
		// N = l²·M with l dividing √M.
		l := 1
		for l*l*mem < n {
			l++
		}
		for l <= sq && sq%l != 0 {
			l++
		}
		if l > sq {
			return 0, fmt.Errorf("plan: %d keys exceed the %s capacity %d", n, string(alg), mem*mem)
		}
		return l * l * mem, nil
	default:
		return 0, fmt.Errorf("plan: unknown algorithm %q", string(alg))
	}
}

// DiskEnvelope sizes a job's scratch reservation for alg, in keys: the
// measured per-algorithm high-water multiple of the padded input, one
// padded length of headroom, and two stripes of allocator slack.  These
// are tighter than the old per-family worst cases (the three-pass family
// peaks at 4× padded, so 5× bounds it; OnePass holds only input and
// output), which shortens head-of-line blocking in the scheduler; the
// superrun-recursive family keeps its measured 7×+1.  JobStatus's
// DiskFootprint is checked against the reservation in the scheduler tests.
func DiskEnvelope(alg Alg, padded, stripe int) int {
	mult := 0
	switch alg {
	case OnePass:
		mult = 2
	case Mesh3, LMM3, Exp2, Mesh2e:
		mult = 5
	case Exp3, Six, Seven, SevenMesh:
		mult = 8
	case Radix:
		mult = 6
	default:
		mult = 8
	}
	return mult*padded + 2*stripe
}

// PermutePlan predicts the payload permutation (internal/records) for
// `words` payload words on an (M, B, D) machine: the padded store length,
// the distribution depth, and the pass count 2·(levels+1) — each level is
// one sequential read and one sequential write of the store.  That is a
// floor: a scatter level also moves a 2-word header per resident segment,
// so records of mean width w̄ words measure 2·(1 + levels·(1 + 2/w̄)).
func PermutePlan(words, mem, b, stripe int) (paddedWords, levels int, passes float64) {
	if words <= 0 {
		return 0, 0, 0
	}
	paddedWords = memsort.CeilDiv(words, stripe) * stripe
	chunk := mem // destination chunk: one internal memory of words
	maxF := mem / b
	if maxF < 2 {
		maxF = 2
	}
	span := memsort.CeilDiv(paddedWords, chunk)
	for span > 1 {
		f := span
		if f > maxF {
			f = maxF
		}
		span = memsort.CeilDiv(span, f)
		levels++
	}
	return paddedWords, levels, 2 * float64(levels+1)
}

// basePasses returns the closed-form read-pass prediction for alg over a
// feasible input, including the expected-fallback surcharge for the
// probabilistic algorithms (failure probability ≤ M^−α, fallback passes on
// top of the wasted attempt).
func basePasses(shape Shape, w Workload, alg Alg) float64 {
	pf := math.Pow(float64(shape.Mem), -shape.Alpha) // ≤ M^−α failure mass
	switch alg {
	case OnePass:
		return 1
	case Mesh3, LMM3:
		return 3
	case Exp2, Mesh2e:
		return 2 + pf*3
	case Exp3:
		return 3 + pf*7
	case Six:
		return 6 + pf*7
	case Seven, SevenMesh:
		return 7
	case Radix:
		// Theorem 7.2: (1+ν)·log(N/M)/log(M/B) scatter rounds w.h.p., plus
		// the final read-sort-write pass; never more rounds than the key
		// width needs.
		r := shape.Mem / shape.B
		if r < 2 {
			r = 2
		}
		rounds := 0
		if w.N > shape.Mem {
			rounds = int(math.Ceil(math.Log(float64(w.N)/float64(shape.Mem)) / math.Log(float64(r))))
			if rounds < 1 {
				rounds = 1
			}
		}
		if w.Universe > 1 {
			keyBits := bits.Len64(uint64(w.Universe - 1))
			digit := bits.Len(uint(r)) - 1 // log₂(M/B), M/B a power of two
			if maxRounds := memsort.CeilDiv(keyBits, digit); rounds > maxRounds {
				rounds = maxRounds
			}
		}
		return float64(rounds) + 1
	default:
		return math.Inf(1)
	}
}

// feasible reports whether alg can run this workload at all, with the
// padded length when it can.
func feasible(shape Shape, w Workload, alg Alg) (int, error) {
	if alg == Radix {
		if w.Universe <= 0 {
			return 0, fmt.Errorf("integer keys only (no universe hint)")
		}
		if w.payloadWords() > 0 {
			return 0, fmt.Errorf("record payloads need a comparison sort")
		}
		if r := shape.Mem / shape.B; r < 2 || r&(r-1) != 0 {
			return 0, fmt.Errorf("needs M/B a power of two >= 2, got %d", r)
		}
		return PadFor(shape.Mem, alg, w.N)
	}
	padded, err := PadFor(shape.Mem, alg, w.N)
	if err != nil {
		return 0, err
	}
	if limit := Capacity(shape.Mem, shape.Alpha, alg); padded > limit {
		return 0, fmt.Errorf("padded length %d exceeds the reliable capacity %d", padded, limit)
	}
	return padded, nil
}

// evaluate builds one candidate row.
func evaluate(shape Shape, w Workload, cal Calibration, alg Alg) Candidate {
	c := Candidate{Algorithm: alg}
	padded, err := feasible(shape, w, alg)
	if err != nil {
		c.Reason = err.Error()
		return c
	}
	c.Feasible = true
	c.PaddedN = padded
	c.ReadPasses = basePasses(shape, w, alg)
	c.WritePasses = c.ReadPasses

	stripe := shape.Stripe()
	readWords := c.ReadPasses * float64(padded)
	writeWords := c.WritePasses * float64(padded)
	// All zero for a bare key sort.
	paddedW, levels, passes := PermutePlan(w.payloadWords(), shape.Mem, shape.B, stripe)
	if paddedW > 0 {
		c.PermuteLevels = levels
		c.PermutePasses = passes
		readWords += float64(levels+1) * float64(paddedW)
		writeWords += float64(levels+1) * float64(paddedW)
	}
	c.IOWords = int64(readWords + writeWords)
	readSteps := math.Ceil(readWords / float64(stripe))
	writeSteps := math.Ceil(writeWords / float64(stripe))
	c.Steps = int64(readSteps + writeSteps)

	// The seconds prediction covers what a caller's wall clock sees, which
	// includes the staging outside the charged passes: the input load (one
	// write pass), the output unload (one read pass), and the payload
	// store's load and gather-back.  IOWords/Steps stay in the charged
	// currency so they line up with the measured Report.
	stagingSteps := math.Ceil(float64(padded+paddedW) / float64(stripe))
	c.IOSeconds = (readSteps+stagingSteps)*cal.ReadStepSeconds +
		(writeSteps+stagingSteps)*cal.WriteStepSeconds
	presorted := w.Presorted
	if presorted < 0 {
		presorted = 0
	}
	if presorted > 1 {
		presorted = 1
	}
	// Every key is handled in memory once per pass (run formation, merge,
	// shuffle); payload words move through partition buffers as raw copies,
	// cheaper per word than key compares.
	c.ComputeSeconds = cal.SortSecondsPerKey*readWords*(1-0.35*presorted) +
		0.25*cal.SortSecondsPerKey*(readWords+writeWords-2*c.ReadPasses*float64(padded))
	if shape.pipelined() {
		// Prefetch and write-behind overlap transfer with computation; the
		// wall is whichever side dominates.
		c.Seconds = math.Max(c.IOSeconds, c.ComputeSeconds)
	} else {
		c.Seconds = c.IOSeconds + c.ComputeSeconds
	}
	return c
}

// Explain evaluates every candidate and returns the ranked table.  It
// fails only when no candidate is feasible (N beyond every capacity).
func Explain(shape Shape, w Workload, cal Calibration) (*Report, error) {
	if err := validate(shape, w); err != nil {
		return nil, err
	}
	r := &Report{Shape: shape, Workload: w, Cal: cal}
	order := make(map[Alg]int, len(Candidates))
	for i, alg := range Candidates {
		order[alg] = i
		r.Candidates = append(r.Candidates, evaluate(shape, w, cal, alg))
	}
	// Rank: feasible first, then predicted seconds, ties canonical.  The
	// sort must be deterministic: seconds ties are exact for analytically
	// identical candidates because every rate is uniform across them.
	cands := r.Candidates
	sort.SliceStable(cands, func(i, j int) bool { return less(cands[i], cands[j], order) })
	if w.Universe > 0 {
		// Integer jobs take the §7 path regardless of rank: SortInts and
		// universe-bearing JobSpecs never run a comparison sort.
		if c := r.Candidate(Radix); c != nil && c.Feasible {
			r.Chosen = Radix
			return r, nil
		}
		return nil, fmt.Errorf("plan: radix infeasible for universe %d: %s", w.Universe, r.Candidate(Radix).Reason)
	}
	if !cands[0].Feasible {
		return nil, fmt.Errorf("plan: no feasible algorithm for %d keys on M = %d (largest capacity %d): %s",
			w.N, shape.Mem, shape.Mem*shape.Mem, cands[0].Reason)
	}
	r.Chosen = cands[0].Algorithm
	return r, nil
}

func less(a, b Candidate, order map[Alg]int) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if a.Feasible && a.Seconds != b.Seconds {
		return a.Seconds < b.Seconds
	}
	return order[a.Algorithm] < order[b.Algorithm]
}

func validate(shape Shape, w Workload) error {
	switch {
	case w.N <= 0:
		return fmt.Errorf("plan: N = %d, want > 0", w.N)
	case shape.Mem <= 0 || shape.B <= 0 || shape.D <= 0:
		return fmt.Errorf("plan: bad shape M = %d, B = %d, D = %d", shape.Mem, shape.B, shape.D)
	case w.PayloadWords < 0:
		return fmt.Errorf("plan: payload words = %d, want >= 0", w.PayloadWords)
	}
	if sq := memsort.Isqrt(shape.Mem); sq != shape.B || sq*sq != shape.Mem {
		return fmt.Errorf("plan: the paper's algorithms need B = √M (M = %d, B = %d)", shape.Mem, shape.B)
	}
	return nil
}

// Choose is the Auto path's deterministic choice: the ranking under the
// fixed analytic default calibration.  Given the same (Mem, B, D, Alpha)
// shape and workload it always returns the same algorithm — no probe, no
// worker-count or backend dependence — which is what keeps Auto runs
// bit-identical.  A calibrated Explain on a latency-heavy shape may rank
// a different candidate cheapest at the margin; callers wanting that
// candidate select it explicitly.
func Choose(shape Shape, w Workload) (Alg, error) {
	r, err := Explain(shape, w, DefaultCalibration(shape))
	if err != nil {
		return "", err
	}
	return r.Chosen, nil
}
