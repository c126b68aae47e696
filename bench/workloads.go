package main

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/records"
	"repro/internal/scenario"
)

// scale fixes every workload's sizes.  fullScale follows ROADMAP item 1
// (N = 64·M on file disks); toyScale is what the tier-1 smoke test runs.
type scale struct {
	Mem, N             int // sort-file, sort-mmap, topk-file
	RecN, PayloadBytes int // records-file
	TopK               int
	ServeMem, ServeN   int // serve-durable: JobMemory and keys per job
	DistMem, DistN     int // dist-2w: worker JobMemory and keys per sort
	PageKeys           int // result and upload page size on the wire
}

var fullScale = scale{
	Mem: 65536, N: 64 * 65536, RecN: 524288, PayloadBytes: 64, TopK: 100,
	ServeMem: 16384, ServeN: 65536, DistMem: 65536, DistN: 2097152, PageKeys: 16384,
}

var toyScale = scale{
	Mem: 1024, N: 16 * 1024, RecN: 2048, PayloadBytes: 64, TopK: 10,
	ServeMem: 1024, ServeN: 4096, DistMem: 1024, DistN: 16 * 1024, PageKeys: 1024,
}

// pipeline is the streaming depth every machine in the bench runs at.
var pipeline = repro.PipelineConfig{Prefetch: 2, WriteBehind: 2}

// runEnv is what one workload instance is built from.  dir is a fresh
// directory the instance owns; tr is nil unless the instance is traced.
type runEnv struct {
	sc   scale
	seed int64
	dir  string
	tr   *tracer
}

// opStats is what one finished, verified op reports.  facts are per-op
// per-layer numbers keyed by metric name.
type opStats struct {
	wall   time.Duration // verification excluded
	words  int           // user 8-byte words the op processed
	passes float64       // Report.Passes (+ PermutePasses for records)
	facts  map[string]float64
}

// workload is one built instance of a named workload.
type workload interface {
	// clients is the number of closed-loop clients the phase runs.
	clients() int
	// warmups is how many untimed ops set-up runs before measuring.
	warmups() int
	// op runs and verifies one operation.  id is unique within the run.
	op(client, id int) (opStats, error)
	// phaseFacts reports phase-level per-layer numbers (per op where that
	// makes sense) for the ops run since the instance was built or the
	// last call.
	phaseFacts(ops int) map[string]float64
	close() error
}

var builders = map[string]func(runEnv) (workload, error){
	"sort-file":     func(e runEnv) (workload, error) { return newSortWL(e, repro.BackendFile) },
	"sort-mmap":     func(e runEnv) (workload, error) { return newSortWL(e, repro.BackendMmap) },
	"records-file":  newRecordsWL,
	"topk-file":     newTopKWL,
	"serve-durable": newServeWL,
	"dist-2w":       newDistWL,
}

func generate(kind string, n int, seed int64) ([]int64, error) {
	return (&repro.WorkloadSpec{Kind: kind, N: n, Seed: seed}).Generate()
}

// ioFacts spreads one op's pdm.Stats over the layers that own the
// counters: pdm (charged blocks and steps), stream (overlap), par (pool).
func ioFacts(f map[string]float64, io pdm.Stats, workers int) {
	f["pdm.block_reads"] = float64(io.BlocksRead)
	f["pdm.block_writes"] = float64(io.BlocksWritten)
	f["pdm.read_steps"] = float64(io.ReadSteps)
	f["pdm.write_steps"] = float64(io.WriteSteps)
	f["stream.prefetch_hits"] = float64(io.PrefetchHits)
	f["stream.prefetch_stalls"] = float64(io.PrefetchStalls)
	f["stream.write_stalls"] = float64(io.WriteBehindStalls)
	f["stream.overlap"] = io.Overlap()
	f["par.sections"] = float64(io.ComputeSections)
	f["par.compute_wall_s"] = io.ComputeSeconds()
	f["par.compute_busy_s"] = float64(io.ComputeBusyNanos) / 1e9
	f["par.utilization"] = io.WorkerUtilization(workers)
}

func boolFact(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// passFacts is ioFacts plus the pass structure of one run.
func passFacts(readPasses, writePasses float64, fellBack bool, io pdm.Stats, workers int) map[string]float64 {
	f := map[string]float64{
		"core.read_passes":    readPasses,
		"core.write_passes":   writePasses,
		"core.fellback_share": boolFact(fellBack),
	}
	ioFacts(f, io, workers)
	return f
}

func reportFacts(rep *repro.Report) map[string]float64 {
	return passFacts(rep.ReadPasses, rep.WritePasses, rep.FellBack, rep.IO, rep.Workers)
}

// machine is a facade machine on file-backed disks plus, on a traced
// instance, a twin pdm.Array over bench-owned span disks.  Untraced ops go
// through the facade; traced ops drive the twin through the same public
// calls the facade makes, with a span around each.
type machine struct {
	m    *repro.Machine
	twin *pdm.Array
	mtr  diskMeter
	tr   *tracer

	// pass bookkeeping for the twin's checkpointer.
	passOp   int
	passRun  spanID
	passSpan spanID
	passNext int
}

func newMachine(e runEnv, backend string) (*machine, error) {
	cfg := repro.MachineConfig{
		Memory: e.sc.Mem, Dir: filepath.Join(e.dir, "disks"), Backend: backend,
		Pipeline: pipeline, Workers: runtime.NumCPU(),
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	m, err := repro.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	mc := &machine{m: m, tr: e.tr, passSpan: noSpan}
	if e.tr == nil {
		return mc, nil
	}
	// The twin takes its configuration from the facade's own array, so it
	// is the machine NewMachine would build, on wrapped disks.
	pcfg := m.Array().Config()
	dir := filepath.Join(e.dir, "twin")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		m.Close()
		return nil, err
	}
	var disks []pdm.Disk
	if backend == repro.BackendMmap {
		disks, err = pdm.NewMmapDisks(dir, pcfg.D, pcfg.B)
	} else {
		disks, err = pdm.NewFileDisks(dir, pcfg.D, pcfg.B)
	}
	if err == nil {
		mc.twin, err = pdm.NewWithDisks(pcfg, meterDisks(disks, &mc.mtr))
	}
	if err != nil {
		m.Close()
		return nil, err
	}
	mc.twin.SetCheckpointer(mc.passDone)
	return mc, nil
}

// array is the array ops on this instance run on.
func (mc *machine) array() *pdm.Array {
	if mc.twin != nil {
		return mc.twin
	}
	return mc.m.Array()
}

func (mc *machine) close() error {
	err := mc.m.Close()
	if mc.twin != nil {
		if terr := mc.twin.Close(); err == nil {
			err = terr
		}
	}
	return err
}

// passDone is the twin's checkpointer: a pass boundary inside core.run
// closes the current core.passK span and opens the next.  records.Permute
// reports its own boundaries through the same seam; those are not core's.
func (mc *machine) passDone(pdm.Checkpoint) error {
	if mc.passSpan == noSpan {
		return nil
	}
	mc.tr.end(mc.passSpan)
	mc.passNext++
	mc.passSpan = mc.tr.begin(mc.passOp, mc.passRun, "core.pass"+strconv.Itoa(mc.passNext))
	return nil
}

// loadPadded mirrors the facade's input staging on the twin: copy into a
// sentinel-padded buffer (facade.pad_copy), then Stripe.Load (pdm.load).
func (mc *machine) loadPadded(op int, parent spanID, keys []int64, padded int) (*pdm.Stripe, error) {
	sp := mc.tr.begin(op, parent, "facade.pad_copy")
	data := make([]int64, padded)
	copy(data, keys)
	for i := len(keys); i < padded; i++ {
		data[i] = math.MaxInt64
	}
	mc.tr.end(sp)
	in, err := mc.twin.NewStripe(padded)
	if err != nil {
		return nil, err
	}
	sp = mc.tr.begin(op, parent, "pdm.load")
	err = in.Load(data)
	mc.tr.end(sp)
	if err != nil {
		in.Free()
		return nil, err
	}
	return in, nil
}

// tracedSort mirrors Machine.Sort(keys, ThreePassLMM) on the twin.
func (mc *machine) tracedSort(op int, parent spanID, keys []int64) (*core.Result, error) {
	padded, err := plan.PadFor(mc.twin.Mem(), plan.LMM3, len(keys))
	if err != nil {
		return nil, err
	}
	in, err := mc.loadPadded(op, parent, keys, padded)
	if err != nil {
		return nil, err
	}
	defer in.Free()
	run := mc.tr.begin(op, parent, "core.run")
	mc.passOp, mc.passRun, mc.passNext = op, run, 1
	mc.passSpan = mc.tr.begin(op, run, "core.pass1")
	res, err := core.ThreePass2(mc.twin, in)
	mc.tr.end(mc.passSpan)
	mc.passSpan = noSpan
	mc.tr.end(run)
	if err != nil {
		return nil, err
	}
	defer res.Out.Free()
	sp := mc.tr.begin(op, parent, "pdm.unload")
	out, err := res.Out.Unload()
	mc.tr.end(sp)
	if err != nil {
		return nil, err
	}
	copy(keys, out[:len(keys)])
	return res, nil
}

func resultFacts(res *core.Result, workers int) map[string]float64 {
	return passFacts(res.ReadPasses, res.WritePasses, res.FellBack, res.IO, workers)
}

// phaseFacts are the phase-level numbers every single-machine workload
// reads off its array: footprints, and the span disks' meter per op.
func (mc *machine) phaseFacts(ops int) map[string]float64 {
	a := mc.array()
	f := map[string]float64{
		"pdm.scratch_words_peak": float64(a.DiskFootprint()),
		"pdm.arena_peak_words":   float64(a.Arena().Peak()),
	}
	// The meter restarts on every call, so warm-up calls are not counted.
	calls, busy := mc.mtr.calls.Swap(0), mc.mtr.busy.Swap(0)
	if mc.twin != nil && ops > 0 {
		f["pdm.disk_calls"] = float64(calls) / float64(ops)
		f["pdm.disk_busy_s"] = float64(busy) / 1e9 / float64(ops)
	}
	return f
}

// sortWL is sort-file and sort-mmap.
type sortWL struct {
	*machine
	keys, buf []int64
	sum       keyChecksum
}

func newSortWL(e runEnv, backend string) (workload, error) {
	keys, err := generate("uniform", e.sc.N, e.seed)
	if err != nil {
		return nil, err
	}
	mc, err := newMachine(e, backend)
	if err != nil {
		return nil, err
	}
	return &sortWL{machine: mc, keys: keys, buf: make([]int64, len(keys)), sum: checksumKeys(keys)}, nil
}

func (w *sortWL) clients() int { return 1 }
func (w *sortWL) warmups() int { return 1 }

func (w *sortWL) op(_, id int) (opStats, error) {
	copy(w.buf, w.keys)
	st := opStats{words: len(w.keys)}
	t0 := time.Now()
	if w.twin == nil {
		rep, err := w.m.Sort(w.buf, repro.ThreePassLMM)
		st.wall = time.Since(t0)
		if err != nil {
			return st, err
		}
		st.passes, st.facts = rep.Passes, reportFacts(rep)
	} else {
		root := w.tr.begin(id, noSpan, "facade.op")
		res, err := w.tracedSort(id, root, w.buf)
		w.tr.end(root)
		st.wall = time.Since(t0)
		if err != nil {
			return st, err
		}
		st.passes, st.facts = res.Passes, resultFacts(res, w.twin.Workers())
	}
	return st, verifySorted(w.buf, w.sum)
}

// recordsWL is records-file: zipf keys (duplicates, so stability matters)
// with fixed-width payloads whose first 8 bytes are the record's index.
type recordsWL struct {
	*machine
	keys, keyBuf []int64
	payloads     [][]byte
	plBuf        [][]byte
	words        int
}

func newRecordsWL(e runEnv) (workload, error) {
	n, pb := e.sc.RecN, e.sc.PayloadBytes
	keys, err := generate("zipf", n, e.seed)
	if err != nil {
		return nil, err
	}
	blob := make([]byte, n*pb)
	x := uint64(e.seed)
	for off := 0; off < len(blob); off += 8 {
		x = mix64(x)
		binary.LittleEndian.PutUint64(blob[off:], x)
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		p := blob[i*pb : (i+1)*pb : (i+1)*pb]
		binary.LittleEndian.PutUint64(p, uint64(i))
		payloads[i] = p
	}
	mc, err := newMachine(e, repro.BackendFile)
	if err != nil {
		return nil, err
	}
	return &recordsWL{
		machine: mc, keys: keys, keyBuf: make([]int64, n),
		payloads: payloads, plBuf: make([][]byte, n),
		words: n + records.PayloadWords(payloads),
	}, nil
}

func (w *recordsWL) clients() int { return 1 }
func (w *recordsWL) warmups() int { return 1 }

func (w *recordsWL) op(_, id int) (opStats, error) {
	copy(w.keyBuf, w.keys)
	copy(w.plBuf, w.payloads)
	st := opStats{words: w.words}
	t0 := time.Now()
	if w.twin == nil {
		rep, err := w.m.SortRecords(w.keyBuf, w.plBuf, repro.ThreePassLMM)
		st.wall = time.Since(t0)
		if err != nil {
			return st, err
		}
		st.passes, st.facts = rep.Passes+rep.PermutePasses, reportFacts(rep)
		st.facts["records.permute_passes"] = rep.PermutePasses
		st.facts["records.payload_words"] = float64(rep.PayloadWords)
		st.facts["records.key_rounds"] = float64(rep.KeyRounds)
	} else {
		root := w.tr.begin(id, noSpan, "facade.op")
		err := w.tracedSortRecords(id, root, &st)
		w.tr.end(root)
		st.wall = time.Since(t0)
		if err != nil {
			return st, err
		}
	}
	return st, verifyRecords(w.keyBuf, w.plBuf, w.keys, w.payloads)
}

// tracedSortRecords mirrors SortRecords on the twin: LSD rounds of packed
// (key digit, position) sorts — one round when every key is nonnegative and
// fits the packing, as the facade decides it — then records.Permute moves
// the payloads.
func (w *recordsWL) tracedSortRecords(op int, root spanID, st *opStats) error {
	n := len(w.keys)
	idxBits := bits.Len64(uint64(n - 1))
	keyBits := 62 - idxBits
	idxMask := int64(1)<<idxBits - 1
	rounds, bias := 1, uint64(0)
	for _, k := range w.keys {
		if k < 0 || k >= 1<<keyBits {
			// Wide keys: digits of the sign-biased key, low digit first.
			rounds, bias = (64+keyBits-1)/keyBits, 1<<63
			break
		}
	}
	digitMask := uint64(1)<<keyBits - 1
	order, next := make([]int, n), make([]int, n)
	for j := range order {
		order[j] = j
	}
	packed := make([]int64, n)
	total := &core.Result{}
	for r := 0; r < rounds; r++ {
		shift := uint(r * keyBits)
		for j, i := range order {
			digit := ((uint64(w.keys[i]) ^ bias) >> shift) & digitMask
			packed[j] = int64(digit)<<idxBits | int64(j)
		}
		res, err := w.tracedSort(op, root, packed)
		if err != nil {
			return err
		}
		for j, p := range packed {
			next[j] = order[p&idxMask]
		}
		order, next = next, order
		total.Passes += res.Passes
		total.ReadPasses += res.ReadPasses
		total.WritePasses += res.WritePasses
		total.IO = total.IO.Add(res.IO)
	}
	for j, i := range order {
		w.keyBuf[j] = w.keys[i]
	}
	before := w.twin.Stats()
	sp := w.tr.begin(op, root, "records.permute")
	pres, err := records.Permute(w.twin, w.plBuf, order)
	w.tr.end(sp)
	if err != nil {
		return err
	}
	copy(w.plBuf, pres.Out)
	total.IO = total.IO.Add(w.twin.Stats().Sub(before))
	st.passes = total.Passes + pres.Passes
	st.facts = resultFacts(total, w.twin.Workers())
	st.facts["records.permute_passes"] = pres.Passes
	st.facts["records.payload_words"] = float64(pres.Words)
	st.facts["records.key_rounds"] = float64(rounds)
	return nil
}

// topkWL is topk-file.
type topkWL struct {
	*machine
	keys []int64
	k    int
	top  []int64 // the oracle: the k smallest keys, ascending

	// the traced mirror's filter plan.
	plan plan.ScenarioPlan
}

func newTopKWL(e runEnv) (workload, error) {
	keys, err := generate("uniform", e.sc.N, e.seed)
	if err != nil {
		return nil, err
	}
	mc, err := newMachine(e, repro.BackendFile)
	if err != nil {
		return nil, err
	}
	w := &topkWL{machine: mc, keys: keys, k: e.sc.TopK}
	a := mc.m.Array()
	w.plan = plan.TopKPlan(plan.Shape{Mem: a.Mem(), B: a.B(), D: a.D(), Alpha: 1}, plan.Workload{N: len(keys)}, w.k)
	w.top = smallest(keys, w.k)
	return w, nil
}

func (w *topkWL) clients() int { return 1 }
func (w *topkWL) warmups() int { return 2 }

func (w *topkWL) op(_, id int) (opStats, error) {
	st := opStats{words: len(w.keys)}
	var top []int64
	t0 := time.Now()
	if w.twin == nil {
		var rep *repro.Report
		var err error
		top, rep, err = w.m.TopK(w.keys, w.k)
		st.wall = time.Since(t0)
		if err != nil {
			return st, err
		}
		st.passes, st.facts = rep.Passes, reportFacts(rep)
		st.facts["scenario.read_steps"] = float64(rep.IO.ReadSteps)
		st.facts["scenario.route_filter_share"] = boolFact(rep.ScenarioRoute == "filter")
		st.facts["scenario.fellback_share"] = boolFact(rep.FellBack)
	} else {
		root := w.tr.begin(id, noSpan, "facade.op")
		var err error
		top, err = w.tracedTopK(id, root, &st)
		w.tr.end(root)
		st.wall = time.Since(t0)
		if err != nil {
			return st, err
		}
	}
	return st, verifyEqual(top, w.top)
}

// sampledThreshold mirrors the facade's client-side selection sample: the
// same fixed splitmix64 draw of plan.SelectSample(n) keys, sorted the way
// the facade sorts them, read at the estimated rank target.
func sampledThreshold(keys []int64, target int) int64 {
	n := len(keys)
	s := plan.SelectSample(n)
	sample := make([]int64, s)
	if s >= n {
		copy(sample, keys)
	} else {
		x := uint64(n)
		for i := range sample {
			x = mix64(x)
			sample[i] = keys[x%uint64(n)]
		}
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	idx := target - 1
	if s < n {
		idx = int(int64(target) * int64(s) / int64(n))
	}
	return sample[min(max(idx, 0), s-1)]
}

// tracedTopK mirrors TopK on the twin: the key scan and sample
// (facade.sample), then the filter route when the planner takes it — load,
// one scenario.Filter pass, an in-memory sort of the survivors, the charged
// result write — and the full sort when it does not or the sample misses.
func (w *topkWL) tracedTopK(op int, root spanID, st *opStats) ([]int64, error) {
	a := w.twin
	n := len(w.keys)
	bySort := func(fellBack bool) ([]int64, error) {
		cp := slices.Clone(w.keys)
		res, err := w.tracedSort(op, root, cp)
		if err != nil {
			return nil, err
		}
		st.passes, st.facts = res.Passes, resultFacts(res, a.Workers())
		st.facts["scenario.read_steps"] = float64(res.IO.ReadSteps)
		st.facts["scenario.route_filter_share"] = 0
		st.facts["scenario.fellback_share"] = boolFact(fellBack)
		return cp[:w.k], nil
	}
	sp := w.tr.begin(op, root, "facade.sample")
	for _, k := range w.keys {
		if k == math.MaxInt64 {
			return nil, repro.ErrKeyRange
		}
	}
	if !w.plan.Feasible || !w.plan.UseScenario {
		w.tr.end(sp)
		return bySort(false)
	}
	threshold := sampledThreshold(w.keys, w.k+plan.SelectDelta(n, w.k))
	w.tr.end(sp)

	before := a.Stats()
	in, err := w.loadPadded(op, root, w.keys, w.plan.PaddedN)
	if err != nil {
		return nil, err
	}
	sp = w.tr.begin(op, root, "scenario.filter")
	fr, err := scenario.Filter(a, in, 0, threshold, false, w.plan.Budget)
	w.tr.end(sp)
	in.Free()
	if errors.Is(err, scenario.ErrOverflow) || (err == nil && len(fr.Kept) < w.k) {
		return bySort(true) // the sample missed, as it would in the facade
	}
	if err != nil {
		return nil, err
	}
	a.Pool().SortKeys(fr.Kept)
	top := slices.Clone(fr.Kept[:w.k])
	sp = w.tr.begin(op, root, "pdm.write_result")
	err = w.writeResult(top)
	w.tr.end(sp)
	if err != nil {
		return nil, err
	}
	io := a.Stats().Sub(before)
	stripe := a.StripeWidth()
	st.passes = io.Passes(w.plan.PaddedN, stripe)
	st.facts = passFacts(io.ReadPasses(w.plan.PaddedN, stripe), io.WritePasses(w.plan.PaddedN, stripe), false, io, a.Workers())
	st.facts["scenario.read_steps"] = float64(io.ReadSteps)
	st.facts["scenario.route_filter_share"] = 1
	st.facts["scenario.fellback_share"] = 0
	return top, nil
}

// writeResult is the charged block-padded result write TopK pays.
func (w *topkWL) writeResult(out []int64) error {
	a := w.twin
	b := a.B()
	pad := (len(out) + b - 1) / b * b
	flat, err := a.Arena().Alloc(pad)
	if err != nil {
		return err
	}
	defer a.Arena().Free(flat)
	copy(flat, out)
	for i := len(out); i < pad; i++ {
		flat[i] = math.MaxInt64
	}
	s, err := a.NewStripe(pad)
	if err != nil {
		return err
	}
	defer s.Free()
	return s.WriteAt(0, flat)
}
