package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to this package's
// tables and to the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("limits: %d workloads, %d end-to-end, %d per-layer", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		check(w.Name, "")
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: %+v, table has %+v", i, w, workloadDefs[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
		if builders[w.Name] == nil {
			t.Errorf("%s: no builder", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: %d/%d in BENCHMARK.json, %d/%d in the tables",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v, table has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v, table has %+v", i, m, d)
		}
	}
	if d := findMetric(endToEnd, "setup_s"); d == nil || d.Unit != "s" || d.Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	for name := range untracedLayer {
		if findMetric(perLayer, name) == nil {
			t.Errorf("untracedLayer names %q, which is not a per-layer metric", name)
		}
	}
}

// TestVerifierRejects is the negative test: the oracle checks must refuse
// outputs that are almost right.
func TestVerifierRejects(t *testing.T) {
	in := []int64{5, -3, 9, 9, 0, 7, 2}
	want := checksumKeys(in)
	sorted := slices.Clone(in)
	slices.Sort(sorted)
	if err := verifySorted(sorted, want); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	swapped := slices.Clone(sorted)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if verifySorted(swapped, want) == nil {
		t.Error("one swapped pair accepted")
	}
	if verifySorted(sorted[1:], want) == nil {
		t.Error("one dropped key accepted")
	}
	// Two keys changed so that sum and xor both still match: 1,2 -> 0,3.
	if verifySorted([]int64{0, 3}, checksumKeys([]int64{1, 2})) == nil {
		t.Error("compensating key changes accepted")
	}
	if verifyEqual(swapped, sorted) == nil || verifyEqual(sorted[1:], sorted) == nil {
		t.Error("verifyEqual accepted a wrong prefix")
	}
	if got := smallest(in, 3); !slices.Equal(got, sorted[:3]) {
		t.Errorf("smallest = %v, want %v", got, sorted[:3])
	}

	// Records: keys 4,1,4,1 with index-tagged payloads; the stable order
	// is records 1,3,0,2.
	keys := []int64{4, 1, 4, 1}
	payloads := make([][]byte, len(keys))
	for i := range payloads {
		payloads[i] = []byte{byte(i), 0, 0, 0, 0, 0, 0, 0, 0xAA, byte(i)}
	}
	pick := func(order ...int) ([]int64, [][]byte) {
		k, p := make([]int64, len(order)), make([][]byte, len(order))
		for j, i := range order {
			k[j], p[j] = keys[i], payloads[i]
		}
		return k, p
	}
	if k, p := pick(1, 3, 0, 2); verifyRecords(k, p, keys, payloads) != nil {
		t.Fatal("correct record order rejected")
	}
	if k, p := pick(3, 1, 0, 2); verifyRecords(k, p, keys, payloads) == nil {
		t.Error("unstable order among equal keys accepted")
	}
	if k, p := pick(1, 3, 0, 0); verifyRecords(k, p, keys, payloads) == nil {
		t.Error("duplicated record accepted")
	}
	k, p := pick(1, 3, 0, 2)
	p[2] = append(slices.Clone(p[2][:9]), 0x55)
	if verifyRecords(k, p, keys, payloads) == nil {
		t.Error("corrupted payload accepted")
	}
}

// smoke runs one toy-scale run and checks it is correct and complete.
func smoke(t *testing.T, workload string, traced bool, traceOut string) *runResult {
	t.Helper()
	res, err := runWorkload(runConfig{
		workload: workload, sc: toyScale, seed: 42, ops: 2, traced: traced,
		setups: 1, scratch: t.TempDir(), traceOut: traceOut,
	})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s traced=%v: %d of %d ops failed: %v", workload, traced, res.Failed, res.Attempted, res.Errors)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("%s traced=%v: metric %s missing or in unit %q", workload, traced, d.Name, m.Unit)
		}
		if !traced && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, d.Name, m.Value)
		}
	}
	// The driver's line: exactly the four keys, exactly the mode's metrics.
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(resultLine(res)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(defs) {
		t.Errorf("%s traced=%v: result line %+v", workload, traced, line)
	}
	return res
}

// exactValues lists a run's exact ("x") metrics.
func exactValues(res *runResult, defs []metricDef) map[string]float64 {
	out := map[string]float64{}
	for _, d := range defs {
		if d.Exact {
			out[d.Name] = res.Metrics[d.Name].Value
		}
	}
	return out
}

// TestSmoke runs all six workloads at toy scale, with and without the
// traced pass, twice each: every declared metric is emitted, every op
// verifies, every exact count repeats, and the backend is invisible to the
// exact counts (sort-file and sort-mmap agree).
func TestSmoke(t *testing.T) {
	tracedExact := map[string]map[string]float64{}
	for _, wd := range workloadDefs {
		plain1, plain2 := smoke(t, wd.Name, false, ""), smoke(t, wd.Name, false, "")
		if a, b := exactValues(plain1, endToEnd), exactValues(plain2, endToEnd); !mapsEqual(a, b) {
			t.Errorf("%s: exact end-to-end metrics differ between runs: %v vs %v", wd.Name, a, b)
		}
		spans := filepath.Join(t.TempDir(), "spans.json")
		traced1, traced2 := smoke(t, wd.Name, true, spans), smoke(t, wd.Name, true, "")
		a, b := exactValues(traced1, perLayer), exactValues(traced2, perLayer)
		if !mapsEqual(a, b) {
			t.Errorf("%s: exact per-layer metrics differ between runs: %v vs %v", wd.Name, a, b)
		}
		tracedExact[wd.Name] = a
		if traced1.Metrics["trace.span_coverage"].Value <= 0 {
			t.Errorf("%s: no span coverage", wd.Name)
		}
		checkChromeTrace(t, spans)
	}
	if a, b := tracedExact["sort-file"], tracedExact["sort-mmap"]; !mapsEqual(a, b) {
		t.Errorf("backend visible in exact counts: file %v, mmap %v", a, b)
	}
	if c := tracedExact["sort-file"]["core.read_passes"]; c != 3 {
		t.Errorf("sort-file read passes = %v, want exactly 3", c)
	}
}

func mapsEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int
			Args map[string]any
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
			if _, ok := e.Args["op"]; !ok || e.Tid == 0 {
				t.Fatalf("span %q has no op id or track", e.Name)
			}
		}
	}
	if complete == 0 {
		t.Fatal("no spans in the Chrome trace")
	}
}

// TestCompare checks -compare's verdicts on synthetic result files.
func TestCompare(t *testing.T) {
	mk := func(p50, passes float64) *resultFile {
		f := &resultFile{Schema: schemaVersion}
		for i := 0; i < 3; i++ {
			f.Runs = append(f.Runs, &runResult{Workload: "sort-file", Correct: true, Metrics: map[string]metricValue{
				"op_wall_p50_s": {Unit: "s", Value: p50 * (1 + 0.001*float64(i))},
				"passes_per_op": {Unit: "passes", Value: passes, Exact: true},
			}})
		}
		return f
	}
	var out bytes.Buffer
	if code := compareResults(mk(1, 3), mk(1.05, 3), &out); code != 0 {
		t.Errorf("5%% slower, inside the bound: exit %d\n%s", code, &out)
	}
	out.Reset()
	if code := compareResults(mk(1, 3), mk(1.4, 3), &out); code == 0 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("40%% slower: exit %d\n%s", code, &out)
	}
	out.Reset()
	if code := compareResults(mk(1, 3), mk(1, 4), &out); code == 0 || !strings.Contains(out.String(), "MISMATCH") {
		t.Errorf("differing exact count: exit %d\n%s", code, &out)
	}
	noisy := mk(1, 3)
	noisy.Runs[0].Metrics["op_wall_p50_s"] = metricValue{Unit: "s", Value: 0.5}
	noisy.Runs[2].Metrics["op_wall_p50_s"] = metricValue{Unit: "s", Value: 1.5}
	out.Reset()
	if code := compareResults(noisy, mk(1.4, 3), &out); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("parent IQR wider than the bound: exit %d\n%s", code, &out)
	}
}
