package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro"
	"repro/internal/journal"
	"repro/internal/memsort"
	"repro/internal/plan"
	"repro/internal/records"
	"repro/internal/stream"
)

// A probe times one layer's public function alone, on data shaped like the
// workload's; a ceiling times what this box can do with no program in the
// way.  Both run in the traced pass, in the same process as the ops they
// are compared with.

// best is the fastest of reps timings of f: the least disturbed one.
func best(reps int, f func()) float64 {
	b := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0).Seconds(); i == 0 || d < b {
			b = d
		}
	}
	return b
}

// bestSort is best for a sort: every repetition sorts a fresh copy of keys
// in buf, and the copy is outside the timing.
func bestSort(reps int, keys, buf []int64, sort func()) float64 {
	b := 0.0
	for i := 0; i < reps; i++ {
		copy(buf, keys)
		t0 := time.Now()
		sort()
		if d := time.Since(t0).Seconds(); i == 0 || d < b {
			b = d
		}
	}
	return b
}

func probeKeys(n int, seed uint64) []int64 {
	out := make([]int64, n)
	x := seed
	for i := range out {
		x = mix64(x)
		out[i] = int64(x >> 2)
	}
	return out
}

// memmoveMBs is the copy bandwidth ceiling, and the run's drift sentinel:
// one half of a 32 MiB buffer copied onto the other.
func memmoveMBs() float64 {
	const half = 16 << 20
	buf := make([]byte, 2*half)
	src, dst := buf[:half], buf[half:]
	// Write the source first: untouched pages are the kernel's shared zero
	// page, which copies out of cache at twice the real bandwidth.
	src[0] = 1
	for n := 1; n < half; n *= 2 {
		copy(src[n:], src[:n])
	}
	copy(dst, src)
	return half / 1e6 / best(3, func() { copy(dst, src) })
}

// jobShape is what the probes need to know about a workload: the machine
// its jobs run on, how many keys one of them sorts, and the planner question
// that job asks.  predicted says whether the planner's wall prediction for
// that spec is comparable with the workload's op (the planner has no wall
// model for scenario routes, and the services report their own drift).
type jobShape struct {
	mem       int
	backend   string
	keys      int
	spec      repro.SortSpec
	predicted bool
}

func (cfg runConfig) shape() jobShape {
	sc := cfg.sc
	js := jobShape{mem: sc.Mem, backend: repro.BackendFile, keys: sc.N, predicted: true}
	switch cfg.workload {
	case "sort-mmap":
		js.backend = repro.BackendMmap
	case "records-file":
		js.keys = sc.RecN
		js.spec.PayloadBytes = sc.PayloadBytes
	case "topk-file":
		js.predicted = false
	case "serve-durable":
		js.mem, js.keys, js.predicted = sc.ServeMem, sc.ServeN, false
	case "dist-2w":
		js.mem, js.keys, js.predicted = sc.DistMem, sc.DistN/distWorkers, false
	}
	js.spec.N = js.keys
	return js
}

// runProbes measures every probe and ceiling for the workload's shape.
// A probe that cannot run reports nothing (its metric stays 0) and says
// why on standard error; the run's ops have already been verified.
func runProbes(cfg runConfig, dir string) map[string]float64 {
	out := map[string]float64{}
	fail := func(what string, err error) {
		if err != nil {
			os.Stderr.WriteString("bench: probe " + what + ": " + err.Error() + "\n")
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail("scratch", err)
		return out
	}
	js := cfg.shape()
	fail("kernels", probeKernels(out, js.mem))
	fail("array", probeArray(out, cfg, dir, js.mem, js.backend))
	fail("plan", probePlan(out, dir, js))
	fail("journal", probeJournal(out, dir))
	fail("ceilings", probeCeilings(out, cfg, dir, js.mem, js.keys))
	return out
}

// probeKernels times the in-memory kernels on one memory load.
func probeKernels(out map[string]float64, mem int) error {
	keys := probeKeys(mem, 1)
	buf, scratch := make([]int64, mem), make([]int64, mem)
	mkeys := func(secs float64) float64 { return float64(mem) / 1e6 / secs }
	timeSort := func(sort func()) float64 { return bestSort(5, keys, buf, sort) }
	out["memsort.probe.radix_mkeys_s"] = mkeys(timeSort(func() { memsort.RadixKeys(buf, scratch) }))
	out["memsort.probe.intro_mkeys_s"] = mkeys(timeSort(func() { memsort.Keys(buf) }))
	out["ceiling.slices_sort_load_mkeys_s"] = mkeys(timeSort(func() { slices.Sort(buf) }))

	// 64 sorted lanes totalling one memory load: the pass-2/3 merge shape.
	const nlanes = 64
	lanes := make([][]int64, nlanes)
	per := mem / nlanes
	for i := range lanes {
		lanes[i] = slices.Clone(keys[i*per : (i+1)*per])
		slices.Sort(lanes[i])
	}
	dst := make([]int64, per*nlanes)
	out["memsort.probe.multimerge_mkeys_s"] = mkeys(best(5, func() { memsort.MultiMerge(dst, lanes) }))
	out["memsort.probe.poprun_mkeys_s"] = mkeys(best(5, func() {
		t := memsort.NewLoserTree(lanes)
		for off := 0; off < len(dst); {
			off += t.PopRun(dst[off:])
		}
	}))
	return nil
}

// probeArray times the pdm, stream, par and records entry points on a
// fresh array of the workload's geometry and backend.
func probeArray(out map[string]float64, cfg runConfig, dir string, mem int, backend string) error {
	open := func(name string, depth int) (*repro.Machine, error) {
		d := filepath.Join(dir, name)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		return repro.NewMachine(repro.MachineConfig{
			Memory: mem, Dir: d, Backend: backend,
			Pipeline: repro.PipelineConfig{Prefetch: depth, WriteBehind: depth},
		})
	}
	t0 := time.Now()
	m, err := open("depth2", pipeline.Prefetch)
	if err != nil {
		return err
	}
	out["facade.machine_build_ms"] = time.Since(t0).Seconds() * 1e3
	defer m.Close()
	a := m.Array()

	// Vectored block I/O: a 16-load stripe written and read whole.
	words := 16 * mem
	data := probeKeys(words, 2)
	s, err := a.NewStripe(words)
	if err != nil {
		return err
	}
	defer s.Free()
	var ioErr error
	mwords := func(secs float64) float64 { return float64(words) / 1e6 / secs }
	if err := s.WriteAt(0, data); err != nil { // grow the disk files untimed
		return err
	}
	out["pdm.probe.writev_mwords_s"] = mwords(best(3, func() { ioErr = firstErr(ioErr, s.WriteAt(0, data)) }))
	out["pdm.probe.readv_mwords_s"] = mwords(best(3, func() { ioErr = firstErr(ioErr, s.ReadAt(0, data)) }))
	if ioErr != nil {
		return ioErr
	}

	load := make([]int64, mem)
	out["par.probe.sortkeys_mkeys_s"] = float64(mem) / 1e6 /
		bestSort(5, probeKeys(mem, 3), load, func() { a.Pool().SortKeys(load) })

	// One read-sort-write pass over the stripe, synchronous and pipelined.
	pipe := func(pm *repro.Machine) (float64, error) {
		pa := pm.Array()
		src, err := pa.NewStripe(words)
		if err != nil {
			return 0, err
		}
		defer src.Free()
		dst, err := pa.NewStripe(words)
		if err != nil {
			return 0, err
		}
		defer dst.Free()
		if err := src.Load(data); err != nil {
			return 0, err
		}
		if err := dst.Load(data); err != nil {
			return 0, err
		}
		buf := make([]int64, mem)
		var perr error
		secs := best(2, func() {
			perr = firstErr(perr, stream.Pipe(src, dst, buf, func(_ int, chunk []int64) error {
				pa.Pool().SortKeys(chunk)
				return nil
			}))
		})
		return secs, perr
	}
	if out["stream.probe.pipe_depth2_s"], err = pipe(m); err != nil {
		return err
	}
	m0, err := open("depth0", 0)
	if err != nil {
		return err
	}
	defer m0.Close()
	if out["stream.probe.pipe_depth0_s"], err = pipe(m0); err != nil {
		return err
	}

	// The external permutation alone: a random permutation of records
	// shaped like records-file's, an eighth of a memory load's worth.
	nrec := mem
	blob := make([]byte, nrec*cfg.sc.PayloadBytes)
	payloads := make([][]byte, nrec)
	for i := range payloads {
		payloads[i] = blob[i*cfg.sc.PayloadBytes : (i+1)*cfg.sc.PayloadBytes]
	}
	perm := make([]int, nrec)
	for i, k := range probeKeys(nrec, 4) {
		perm[i] = i
		j := int(uint64(k) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	var pres *records.Result
	secs := best(2, func() {
		var perr error
		pres, perr = records.Permute(a, payloads, perm)
		ioErr = firstErr(ioErr, perr)
	})
	if ioErr != nil {
		return ioErr
	}
	out["records.probe.permute_mwords_s"] = float64(pres.Words) / 1e6 / secs
	return nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// probePlan times the planner: a cold calibration, then a warm Explain,
// and records the prediction the facade workloads' walls are set against.
func probePlan(out map[string]float64, dir string, js jobShape) error {
	d := filepath.Join(dir, "plan")
	if err := os.MkdirAll(d, 0o755); err != nil {
		return err
	}
	m, err := repro.NewMachine(repro.MachineConfig{Memory: js.mem, Dir: d, Backend: js.backend, Pipeline: pipeline})
	if err != nil {
		return err
	}
	defer m.Close()
	plan.ResetCalibrationCache()
	t0 := time.Now()
	rep, err := m.Explain(js.spec)
	if err != nil {
		return err
	}
	out["plan.calibrate_ms"] = time.Since(t0).Seconds() * 1e3
	var xerr error
	out["plan.explain_us"] = 1e6 * best(20, func() { _, err := m.Explain(js.spec); xerr = firstErr(xerr, err) })
	if xerr != nil {
		return xerr
	}
	if c := rep.Candidate("lmm3"); c != nil && c.Feasible && js.predicted {
		out["plan.predicted_s"] = c.Seconds
	}
	return nil
}

// probeJournal times journal.Append (one framed record, fsynced) alone.
func probeJournal(out map[string]float64, dir string) error {
	j, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		return err
	}
	defer j.Close()
	data := []byte(`{"probe":"` + string(bytes.Repeat([]byte("x"), 240)) + `"}`)
	var took []float64
	for i := 0; i < 48; i++ {
		t0 := time.Now()
		if _, err := j.Append(journal.Checkpoint, i, data); err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds()*1e6)
	}
	out["journal.probe.append_p50_us"] = median(took)
	out["journal.probe.append_p90_us"] = quantile(took, 0.9)
	return nil
}

// probeCeilings measures what the box can do on the same scratch: raw
// sequential file I/O, an in-core sort of the workload's keys, a bare
// fsync, and one JSON page over loopback HTTP.
func probeCeilings(out map[string]float64, cfg runConfig, dir string, mem, n int) error {
	// Sequential 1 MiB pwrite then pread of a file 16 memory loads long.
	const chunk = 1 << 20
	size := max(16*mem*8, chunk)
	f, err := os.Create(filepath.Join(dir, "ceiling.bin"))
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, chunk)
	var ioErr error
	sweep := func(op func(b []byte, off int64) (int, error)) func() {
		return func() {
			for off := 0; off < size; off += chunk {
				_, err := op(buf, int64(off))
				ioErr = firstErr(ioErr, err)
			}
		}
	}
	sweep(f.WriteAt)() // allocate the blocks untimed
	out["ceiling.pwrite_mb_s"] = float64(size) / 1e6 / best(3, sweep(f.WriteAt))
	out["ceiling.pread_mb_s"] = float64(size) / 1e6 / best(3, sweep(f.ReadAt))
	if ioErr != nil {
		return ioErr
	}

	// A bare 4 KiB write + fsync: the floor under one journal append.
	jf, err := os.Create(filepath.Join(dir, "fsync.bin"))
	if err != nil {
		return err
	}
	defer jf.Close()
	var took []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		if _, err := jf.Write(buf[:4096]); err != nil {
			return err
		}
		if err := jf.Sync(); err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds()*1e6)
	}
	out["ceiling.fsync_us"] = median(took)

	// All of the workload's keys sorted in core by the standard library.
	keys := probeKeys(n, 5)
	out["ceiling.slices_sort_full_s"] = best(1, func() { slices.Sort(keys) })

	// One result page through an echo handler: decode, encode, loopback.
	page, err := json.Marshal(map[string]any{"keys": probeKeys(cfg.sc.PageKeys, 6)})
	if err != nil {
		return err
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var pg struct {
			Keys []int64 `json:"keys"`
		}
		if err := json.NewDecoder(r.Body).Decode(&pg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(pg) //nolint:errcheck // the probe's client checks what arrives
	}))
	defer srv.Close()
	tp := newTransport()
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp}
	took = took[:0]
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		resp, err := hc.Post(srv.URL, "application/json", bytes.NewReader(page))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds()*1e3)
	}
	out["ceiling.loopback_page_ms"] = median(took)
	return nil
}

// roofline composes the ceilings into the floor under one op: the time the
// words the op moved would take at raw file bandwidth (plus, for the
// services, its fsyncs and wire pages at their ceilings), and the time an
// in-core sort of its keys takes.  fraction is the larger floor over the
// measured untraced median op.
func roofline(r *runResult, cfg runConfig, p50 float64) {
	v := func(name string) float64 { return r.Metrics[name].Value }
	b := float64(memsort.Isqrt(cfg.shape().mem))
	sc := cfg.sc

	// Words through the disks: the charged blocks plus the uncharged
	// staging the facade does around them.
	readWords := v("pdm.block_reads") * b
	writeWords := v("pdm.block_writes") * b
	compute := v("ceiling.slices_sort_full_s")
	pages := 0.0
	switch cfg.workload {
	case "sort-file", "sort-mmap":
		readWords += float64(sc.N)
		writeWords += float64(sc.N)
	case "records-file":
		staged := v("records.key_rounds")*float64(sc.RecN) + v("records.payload_words")
		readWords += staged
		writeWords += staged
		compute += 2 * 8 * v("records.payload_words") / 1e6 / max(v("ceiling.memmove_mb_s"), 1)
	case "topk-file":
		writeWords += float64(sc.N)
		compute = 8 * float64(sc.N) / 1e6 / max(v("ceiling.memmove_mb_s"), 1) // one scan
	case "serve-durable":
		readWords += float64(sc.ServeN)
		writeWords += float64(sc.ServeN)
		pages = 2 * float64(sc.ServeN) / float64(sc.PageKeys) // submit body + result pages
	case "dist-2w":
		readWords += float64(sc.DistN)
		writeWords += float64(sc.DistN)
		pages = 2 * float64(sc.DistN) / float64(sc.PageKeys) / distWorkers // per worker, in parallel
	}
	io := 8*readWords/1e6/max(v("ceiling.pread_mb_s"), 1) + 8*writeWords/1e6/max(v("ceiling.pwrite_mb_s"), 1)
	io += v("journal.appends_per_job") * v("ceiling.fsync_us") / 1e6
	io += pages * v("ceiling.loopback_page_ms") / 1e3
	r.set(perLayer, "roofline.io_floor_s", one(io))
	r.set(perLayer, "roofline.compute_floor_s", one(compute))
	if p50 > 0 {
		r.set(perLayer, "roofline.fraction", one(max(io, compute)/p50))
	}
}
