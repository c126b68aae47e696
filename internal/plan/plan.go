package plan

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/records"
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
	// The row order and the choice ignore it.
	Presorted float64 `json:"presorted,omitempty"`
}

// payloadWords resolves the payload volume the permutation will move.
func (w Workload) payloadWords() int {
	if w.PayloadWords == 0 && w.PayloadBytes > 0 {
		return w.N * ((w.PayloadBytes + 7) / 8)
	}
	return w.PayloadWords
}

// Candidate is one row of the plan table (repro.PlanCandidate).
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
	// 2·(1 + levels·(1 + 2/w̄)) passes over the payload store for records
	// of mean width w̄ words, each level moving a 2-word segment header per
	// record besides the data.
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

// Report is the planner's one answer (repro.PlanReport): every candidate
// in the order Auto chooses, plus the choice.
type Report struct {
	Spec Workload `json:"spec"`
	// Chosen is the first row, or Radix whenever the workload hints a
	// universe (integer jobs always take the §7 path).
	Chosen Alg `json:"chosen"`
	// Candidates is sorted: feasible before infeasible, then by the
	// seconds Auto prices (autoPrice), ties by canonical order.  Each row's
	// own seconds columns are priced with Calibration.
	Candidates  []Candidate `json:"candidates"`
	Calibration Calibration `json:"calibration"`
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
// probabilistic algorithms): its row's Capacity.  Radix reports M².
func Capacity(mem int, alpha float64, alg Alg) int {
	capacity := alg.Rules().Capacity
	if capacity == nil {
		return 0
	}
	c, _ := capacity(mem, alpha, 0, false)
	return c
}

// PadFor returns the smallest on-disk length ≥ n satisfying alg's geometry
// on an M-key machine: its row's Pad, the rule its run function enforces.
func PadFor(mem int, alg Alg, n int) (int, error) {
	pad := alg.Rules().Pad
	if pad == nil {
		return 0, fmt.Errorf("plan: unknown algorithm %q", string(alg))
	}
	padded, err := pad(mem, n)
	if err != nil {
		return 0, fmt.Errorf("plan: %w", err)
	}
	return padded, nil
}

// DiskEnvelope sizes a job's scratch reservation for alg, in keys: its
// row's Envelope plus two stripes of allocator slack.  The scheduler
// tests and TestDiskEnvelopeBoundsFootprint check it against DiskFootprint.
func DiskEnvelope(shape Shape, w Workload, alg Alg, padded int) int {
	return alg.Rules().Envelope(shape.Mem, shape.D, padded, w.Universe) + 2*shape.Stripe()
}

// PermutePlan predicts the payload permutation (internal/records) of n
// records totalling `words` payload words on an (M, B, D) machine: the
// padded store length, the distribution depth, the segment header words
// each scatter level moves (2 per record), and the pass count
// 2·(1 + levels·(1 + 2/w̄)) for records of mean width w̄ = words/n — the
// store is read once and written once, and every level writes and reads
// back the data plus its headers.  Records split at a partition boundary
// (one more header each) and partial partition blocks are not priced.
func PermutePlan(n, words, mem, b, stripe int) (paddedWords, levels, headerWords int, passes float64) {
	if words <= 0 {
		return 0, 0, 0, 0
	}
	paddedWords = memsort.CeilDiv(words, stripe) * stripe
	levels = records.Levels(paddedWords, mem, b, nil)
	headerWords = 2 * n
	return paddedWords, levels, headerWords, 2 * (1 + float64(levels)*(1+float64(headerWords)/float64(words)))
}

// basePasses is the read-pass prediction for alg over a feasible input:
// its row's Passes plus the expected-fallback surcharge M^−α·Fallback.
func basePasses(shape Shape, w Workload, alg Alg, padded int) float64 {
	r := alg.Rules()
	read, _, _ := r.Passes(shape.Mem, shape.D, w.N, padded, w.Universe)
	return read + math.Pow(float64(shape.Mem), -shape.Alpha)*r.Fallback
}

// ExactPasses returns the measured-exact read/write pass counts for alg on
// this shape — the number a non-fallback forced run reports to the last
// bit — where its row's Passes say exact (core's table states when).
// Elsewhere callers must treat the row's Passes as a floor.
func ExactPasses(shape Shape, w Workload, alg Alg) (read, write float64, exact bool) {
	padded, err := feasible(shape, w, alg)
	if err != nil {
		return 0, 0, false
	}
	if read, write, exact = alg.Rules().Passes(shape.Mem, shape.D, w.N, padded, w.Universe); exact {
		return read, write, true
	}
	return 0, 0, false
}

// feasible reports whether alg can run this workload at all, with the
// padded length when it can: its row pads the workload and admits it
// within its capacity.
func feasible(shape Shape, w Workload, alg Alg) (int, error) {
	padded, err := PadFor(shape.Mem, alg, w.N)
	if err != nil {
		return 0, err
	}
	limit, err := alg.Rules().Capacity(shape.Mem, shape.Alpha, w.Universe, w.payloadWords() > 0)
	if err != nil {
		return 0, err
	}
	if padded > limit {
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
	c.ReadPasses = basePasses(shape, w, alg, padded)
	c.WritePasses = c.ReadPasses

	stripe := shape.Stripe()
	readWords := c.ReadPasses * float64(padded)
	writeWords := c.WritePasses * float64(padded)
	// All zero for a bare key sort.
	paddedW, levels, hdr, passes := PermutePlan(w.N, w.payloadWords(), shape.Mem, shape.B, stripe)
	if paddedW > 0 {
		c.PermuteLevels = levels
		c.PermutePasses = passes
		moved := float64(paddedW + levels*(paddedW+hdr))
		readWords += moved
		writeWords += moved
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

// Explain evaluates every candidate under cal and returns them in the
// order Auto chooses.  It fails only when no candidate is feasible (N
// beyond every capacity).
func Explain(shape Shape, w Workload, cal Calibration) (*Report, error) {
	if err := validate(shape, w); err != nil {
		return nil, err
	}
	r := &Report{Spec: w, Calibration: cal}
	price := make(map[Alg]float64, len(Candidates))
	for _, alg := range Candidates {
		r.Candidates = append(r.Candidates, evaluate(shape, w, cal, alg))
		price[alg] = autoPrice(shape, w, alg)
	}
	// Stable over the canonical order, so equal prices keep it.  Ties are
	// exact for analytically identical candidates because every rate is
	// uniform across them.
	cands := r.Candidates
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Feasible != cands[j].Feasible {
			return cands[i].Feasible
		}
		return cands[i].Feasible && price[cands[i].Algorithm] < price[cands[j].Algorithm]
	})
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

// autoPrice is the seconds Auto ranks alg by: the bare (Mem, B, D, Alpha)
// geometry and the workload's N and Universe under DefaultCalibration.  No
// probe, worker count, backend, latency, payload or presortedness hint
// enters it, so for a given geometry the order is a pure function.
func autoPrice(shape Shape, w Workload, alg Alg) float64 {
	bare := Shape{Mem: shape.Mem, B: shape.B, D: shape.D, Alpha: shape.Alpha}
	return evaluate(bare, Workload{N: w.N, Universe: w.Universe}, DefaultCalibration(bare), alg).Seconds
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

// Choose is the Auto path's choice: Explain's Chosen.  It depends only on
// the (Mem, B, D, Alpha) geometry and the workload's N and Universe, which
// is what keeps Auto runs bit-identical across workers and backends.
func Choose(shape Shape, w Workload) (Alg, error) {
	r, err := Explain(shape, w, DefaultCalibration(shape))
	if err != nil {
		return "", err
	}
	return r.Chosen, nil
}
