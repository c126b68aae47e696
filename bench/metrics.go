package main

import (
	"runtime"
	"sort"
)

// set stores one metric under its table definition's unit and exactness.
func (r *runResult) set(defs []metricDef, name string, s summary) {
	d := findMetric(defs, name)
	if d == nil {
		panic("bench: metric " + name + " is not in the tables") // a typo in this package
	}
	mv := metricValue{Unit: d.Unit, Value: s.Value, Exact: d.Exact}
	if s.N > 1 {
		mv.Q1, mv.Q3, mv.N = s.Q1, s.Q3, s.N
	}
	r.Metrics[name] = mv
}

func one(v float64) summary { return summary{Value: v, N: 1} }

func perOp(total float64, ops int) summary {
	if ops == 0 {
		return summary{}
	}
	return one(total / float64(ops))
}

// endToEndMetrics fills the user-visible metrics from the untraced phase.
func endToEndMetrics(r *runResult, p *phase, setups []float64, clients int, peakRSS summary) {
	ops := len(p.ops)
	var words float64
	passes := make([]float64, ops)
	for i, o := range p.ops {
		words += float64(o.words)
		passes[i] = o.passes
	}
	wall := summarize(p.walls())
	r.set(endToEnd, "setup_s", summarize(setups))
	// Closed loop: each client is inside an op except while the bench
	// prepares or verifies one, so the rate is the clients' words per op
	// over the op time.  The median op stands for "the op time": a mean
	// would let one stalled op move the rate.
	if wall.Value > 0 {
		r.set(endToEnd, "words_per_s", one(words/float64(ops)*float64(clients)/wall.Value))
	} else {
		r.set(endToEnd, "words_per_s", summary{})
	}
	r.set(endToEnd, "op_wall_p50_s", wall)
	r.set(endToEnd, "cpu_s_per_op", perOp(p.after.cpu-p.before.cpu, ops))
	r.set(endToEnd, "alloc_bytes_per_op", perOp(float64(p.after.alloc-p.before.alloc), ops))
	r.set(endToEnd, "peak_rss_bytes", peakRSS)
	r.set(endToEnd, "passes_per_op", summarize(passes))
}

// layerFacts fills the per-layer metrics that are read straight off a
// phase: per-op facts (medians), phase facts, and the process meters.
// untracedOnly restricts it to the ones an untraced run may record.
func layerFacts(r *runResult, p *phase, untracedOnly bool) {
	ops := len(p.ops)
	put := func(name string, s summary) {
		if findMetric(perLayer, name) != nil && (!untracedOnly || untracedLayer[name]) {
			r.set(perLayer, name, s)
		}
	}
	names := map[string]bool{}
	for _, o := range p.ops {
		for k := range o.facts {
			names[k] = true
		}
	}
	for name := range names {
		put(name, summarize(p.fact(name)))
	}
	for name, v := range p.facts {
		put(name, one(v))
	}
	put("pdm.syscalls_per_op", perOp(float64(p.after.syscalls-p.before.syscalls), ops))
	put("runtime.gc_cycles_per_op", perOp(float64(p.after.gcCycles-p.before.gcCycles), ops))
	if cpu := p.after.cpu - p.before.cpu; cpu > 0 {
		put("runtime.gc_cpu_share", one((p.after.gcCPU-p.before.gcCPU)/cpu))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	put("runtime.heap_peak_bytes", one(float64(ms.HeapSys)))
}

// spanSeconds maps a per-layer wall metric to the span it is the per-op
// duration of.
var spanSeconds = map[string]string{
	"core.run_wall_s":        "core.run",
	"core.pass1_wall_s":      "core.pass1",
	"core.pass2_wall_s":      "core.pass2",
	"core.pass3_wall_s":      "core.pass3",
	"facade.pad_copy_s":      "facade.pad_copy",
	"facade.load_s":          "pdm.load",
	"facade.unload_s":        "pdm.unload",
	"records.permute_wall_s": "records.permute",
	"scenario.filter_wall_s": "scenario.filter",
	"pdmdapi.server_busy_s":  "pdmdapi.server",
	"dist.sort_wall_s":       "dist.sort",
}

// spanMillis maps a per-request latency metric to the span it is the
// median single-span duration of.
var spanMillis = map[string]string{
	"pdmdapi.submit_p50_ms":      "pdmdapi.submit",
	"pdmdapi.status_p50_ms":      "pdmdapi.status",
	"pdmdapi.page_p50_ms":        "pdmdapi.page",
	"pdmdapi.upload_page_p50_ms": "pdmdapi.upload_page",
}

// layerMetrics fills every per-layer metric of a traced run.  A layer the
// workload never enters reports 0: it did no work and took no time.
func layerMetrics(r *runResult, cfg runConfig, plain, traced *phase, tr *tracer, probes map[string]float64) {
	for _, d := range perLayer {
		r.set(perLayer, d.Name, summary{})
	}
	layerFacts(r, traced, false)

	// Span-derived walls: per-op sums, median across ops.
	byOp := tr.byOp()
	var coverage, rootSelf []float64
	selfBy := map[string][]float64{}
	perOpDur := map[string][]float64{}
	for _, ot := range byOp {
		if ot.wall <= 0 {
			continue
		}
		coverage = append(coverage, 1-ot.rootSelf.Seconds()/ot.wall.Seconds())
		if ot.root == "facade.op" {
			rootSelf = append(rootSelf, ot.rootSelf.Seconds())
		}
		for layer, d := range ot.selfBy {
			selfBy[layer] = append(selfBy[layer], d.Seconds())
		}
		for _, name := range spanSeconds {
			perOpDur[name] = append(perOpDur[name], ot.byName[name].Seconds())
		}
	}
	for metric, name := range spanSeconds {
		r.set(perLayer, metric, summarize(perOpDur[name]))
	}
	for metric, name := range spanMillis {
		r.set(perLayer, metric, summarize(tr.millis(name)))
	}
	r.set(perLayer, "facade.self_s", summarize(rootSelf))
	r.set(perLayer, "trace.span_coverage", summarize(coverage))
	r.SelfTime = map[string]float64{}
	if len(rootSelf) > 0 {
		r.SelfTime["facade"] = median(rootSelf)
	}
	for layer, xs := range selfBy {
		r.SelfTime[layer] += median(xs)
	}
	// dist's coordinator is what dist.sort does not spend inside requests.
	r.set(perLayer, "dist.coordinator_self_s", summarize(selfBy["dist"]))

	// Job timelines, from JobStatus timestamps.
	r.set(perLayer, "sched.queue_wait_p50_ms", summarize(traced.fact("sched.queue_wait_ms")))
	run := traced.fact("sched.run_ms")
	r.set(perLayer, "sched.run_p50_ms", summarize(run))
	r.set(perLayer, "sched.run_p90_ms", one(quantile(run, 0.9)))

	// The traced pass's own validity: how much slower it ran.
	p50, traced50 := median(plain.walls()), median(traced.walls())
	if p50 > 0 {
		r.set(perLayer, "trace.overhead_share", one((traced50-p50)/p50))
	}

	for name, v := range probes {
		if findMetric(perLayer, name) != nil {
			r.set(perLayer, name, one(v))
		}
	}
	// Services report their own prediction drift per job; for the facade
	// workloads the planner's prediction is set against the untraced p50.
	if pred := probes["plan.predicted_s"]; pred > 0 && p50 > 0 {
		r.set(perLayer, "plan.prediction_rel_error", one((p50-pred)/pred))
	}
	roofline(r, cfg, p50)
}

// millis lists, in milliseconds, every finished measured span with the name.
func (tr *tracer) millis(name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.name == name && s.end >= 0 && s.op != warmupOp {
			out = append(out, (s.end-s.start).Seconds()*1e3)
		}
	}
	return out
}

// largestSelf names the layer with the most self time in a traced run.
func largestSelf(self map[string]float64) (string, float64) {
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	best, bestV := "", -1.0
	for _, k := range names {
		if self[k] > bestV {
			best, bestV = k, self[k]
		}
	}
	return best, bestV
}
