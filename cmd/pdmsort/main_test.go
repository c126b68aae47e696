package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/workload"
)

func TestReadWriteKeysRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.bin")
	keys := []int64{-5, 0, 1 << 40, 7}
	if err := writeKeys(path, keys); err != nil {
		t.Fatal(err)
	}
	got, err := readKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, keys) {
		t.Fatalf("round trip = %v", got)
	}
	// Corrupt size.
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readKeys(path); err == nil {
		t.Fatal("ragged file accepted")
	}
	if _, err := readKeys(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestParseAlg(t *testing.T) {
	cases := map[string]repro.Algorithm{
		"auto":   repro.Auto,
		"mesh3":  repro.ThreePassMesh,
		"mesh2e": repro.TwoPassMeshExpected,
		"lmm3":   repro.ThreePassLMM,
		"exp2":   repro.TwoPassExpected,
		"exp3":   repro.ThreePassExpected,
		"seven":  repro.SevenPass,
		"six":    repro.SixPassExpected,
	}
	for name, want := range cases {
		got, err := repro.ParseAlgorithm(name)
		if err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := repro.ParseAlgorithm("bogus"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	keys := workload.Perm(3000, 5)
	if err := writeKeys(in, keys); err != nil {
		t.Fatal(err)
	}
	scratch := filepath.Join(dir, "disks")
	if err := os.Mkdir(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := run(options{in: in, out: out, mem: 256, alg: "lmm3", universe: 1 << 32, scratch: scratch,
		seed: 1, pipe: repro.PipelineConfig{Prefetch: 2, WriteBehind: 2}, workers: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := readKeys(out)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(got) || len(got) != 3000 {
		t.Fatal("output not sorted")
	}
}

func TestRunGenerateAndRadix(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sorted.bin")
	scratch := filepath.Join(dir, "disks")
	if err := os.Mkdir(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := run(options{out: out, mem: 256, disks: 4, alg: "radix", universe: 1 << 20, scratch: scratch,
		gen: 2000, seed: 7, pipe: repro.PipelineConfig{Prefetch: 2, WriteBehind: 2}, workers: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := readKeys(out)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(got) || len(got) != 2000 {
		t.Fatal("generated+radix output wrong")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(options{mem: 256, alg: "auto", universe: 1 << 20, scratch: t.TempDir(), seed: 1, sep: ","}); err == nil {
		t.Fatal("no input accepted")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	if err := writeKeys(in, []int64{3, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := run(options{in: in, mem: 256, alg: "bogus", universe: 1 << 20, scratch: dir, seed: 1, sep: ","}); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

// TestValidateRejectsBadFlags covers the upfront flag validation: every
// unusable combination must be rejected as a usageError — which main
// turns into a non-zero exit plus the usage text — before any file is
// read, any key generated, or any machine built.
func TestValidateRejectsBadFlags(t *testing.T) {
	ok := repro.PipelineConfig{Prefetch: 2, WriteBehind: 2}
	base := options{mem: 256, alg: "auto", universe: 1, sep: ",", pipe: ok}
	with := func(mut func(*options)) options {
		o := base
		mut(&o)
		return o
	}
	cases := []struct {
		name string
		o    options
	}{
		{"unknown alg", with(func(o *options) { o.in = "x.bin"; o.alg = "bogus" })},
		{"unknown alg with gen", with(func(o *options) { o.alg = "quick3"; o.universe = 100; o.gen = 10 })},
		{"no input", base},
		{"gen and in conflict", with(func(o *options) { o.in = "x.bin"; o.universe = 100; o.gen = 10 })},
		{"csv and in conflict", with(func(o *options) { o.in = "x.bin"; o.csv = "y.csv" })},
		{"csv and gen conflict", with(func(o *options) { o.csv = "y.csv"; o.universe = 100; o.gen = 10 })},
		{"csv with radix", with(func(o *options) { o.csv = "y.csv"; o.alg = "radix" })},
		{"csv negative keycol", with(func(o *options) { o.csv = "y.csv"; o.keyCol = -1 })},
		{"csv empty sep", with(func(o *options) { o.csv = "y.csv"; o.sep = "" })},
		{"negative gen", with(func(o *options) { o.universe = 100; o.gen = -5 })},
		{"zero universe radix", with(func(o *options) { o.in = "x.bin"; o.alg = "radix"; o.universe = 0 })},
		{"zero universe gen", with(func(o *options) { o.universe = 0; o.gen = 10 })},
		{"zero mem", with(func(o *options) { o.in = "x.bin"; o.mem = 0 })},
		{"negative disks", with(func(o *options) { o.in = "x.bin"; o.disks = -1 })},
		{"negative prefetch", with(func(o *options) { o.in = "x.bin"; o.pipe = repro.PipelineConfig{Prefetch: -1} })},
		{"negative workers", with(func(o *options) { o.in = "x.bin"; o.workers = -2 })},
		{"unknown backend", with(func(o *options) { o.in = "x.bin"; o.backend = "ram" })},
	}
	for _, tc := range cases {
		err := validate(tc.o)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: error %v is not a usageError", tc.name, err)
		}
	}
	// Valid combinations pass.
	if err := validate(with(func(o *options) { o.in = "x.bin"; o.alg = "sevenmesh" })); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if err := validate(with(func(o *options) { o.disks = 4; o.alg = "radix"; o.universe = 100; o.gen = 10; o.workers = 2 })); err != nil {
		t.Fatalf("valid radix gen rejected: %v", err)
	}
	if err := validate(with(func(o *options) { o.csv = "y.csv"; o.keyCol = 2 })); err != nil {
		t.Fatalf("valid csv flags rejected: %v", err)
	}
	// run surfaces the usageError without touching the filesystem: the
	// input file does not exist, yet the algorithm error comes first.
	err := run(with(func(o *options) { o.in = "/nonexistent/keys.bin"; o.alg = "bogus" }))
	var ue usageError
	if !errors.As(err, &ue) {
		t.Fatalf("run returned %v, want a usageError before any I/O", err)
	}
}

// TestRunCSVEndToEnd is the first end-to-end "sort a file" scenario: a
// CSV on disk, sorted stably by its key column through the full-record
// path, comes back with whole lines intact in key order.
func TestRunCSVEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "table.csv")
	out := filepath.Join(dir, "sorted.csv")
	var b strings.Builder
	n := 400
	for i := 0; i < n; i++ {
		// Key in column 1; duplicates (mod 20) make stability observable
		// through the row id in column 0.
		fmt.Fprintf(&b, "row%04d,%d,payload-%04d\n", i, (i*37)%20, i)
	}
	if err := os.WriteFile(in, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	scratch := filepath.Join(dir, "disks")
	if err := os.Mkdir(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	err := run(options{csv: in, keyCol: 1, sep: ",", out: out, mem: 256, scratch: scratch,
		alg: "auto", universe: 1, seed: 1, pipe: repro.PipelineConfig{Prefetch: 2, WriteBehind: 2}, workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.HasSuffix(text, "\n") {
		t.Fatal("trailing newline lost")
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("%d lines out, want %d", len(lines), n)
	}
	lastKey := int64(-1)
	lastRow := ""
	for _, line := range lines {
		fields := strings.Split(line, ",")
		if len(fields) != 3 {
			t.Fatalf("line %q torn apart", line)
		}
		k, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if k < lastKey {
			t.Fatalf("keys out of order: %d after %d", k, lastKey)
		}
		if k == lastKey && fields[0] <= lastRow {
			t.Fatalf("stability violated: %s after %s for key %d", fields[0], lastRow, k)
		}
		lastKey, lastRow = k, fields[0]
	}
	// Bad key column is a runtime error naming the line, not a usage error.
	if err := os.WriteFile(in, []byte("a,b,c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(options{csv: in, keyCol: 1, sep: ",", mem: 256, scratch: scratch,
		alg: "auto", universe: 1, seed: 1})
	if err == nil {
		t.Fatal("unparsable key column accepted")
	}
	var ue usageError
	if errors.As(err, &ue) {
		t.Fatalf("data error %v misclassified as a usage error", err)
	}
	// Key column out of range names the offending line too.
	if err := os.WriteFile(in, []byte("1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{csv: in, keyCol: 5, sep: ",", mem: 256, scratch: scratch,
		alg: "auto", universe: 1, seed: 1}); err == nil {
		t.Fatal("out-of-range key column accepted")
	}
}

// normalizeExplain replaces the calibrated seconds column with a fixed
// token: every other column (passes, padded lengths, I/O words, permute
// passes, feasibility reasons) and the row order are deterministic for a
// fixed input and machine shape, which is what the gold pins.
func normalizeExplain(s string) string {
	return regexp.MustCompile(`\d+\.\d{3}s`).ReplaceAllString(s, "<T>")
}

// TestExplainGold pins the -explain output (the CI docs leg runs this):
// a bare key plan, a records plan, a universe plan and a forced -alg,
// seconds normalized.
func TestExplainGold(t *testing.T) {
	m, err := repro.NewMachine(repro.MachineConfig{
		Memory: 1024, Dir: t.TempDir(),
		Pipeline: repro.PipelineConfig{Prefetch: 2, WriteBehind: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var buf bytes.Buffer
	for _, tc := range []struct {
		spec repro.SortSpec
		alg  repro.Algorithm
	}{
		{repro.SortSpec{N: 2048}, repro.Auto},
		{repro.SortSpec{N: 1024, PayloadWords: 4096}, repro.Auto},
		{repro.SortSpec{N: 40000, Universe: 1 << 16}, repro.Auto},
		{repro.SortSpec{N: 2048}, repro.ThreePassLMM},
	} {
		rep, err := explain(m, tc.spec, tc.alg)
		if err != nil {
			t.Fatal(err)
		}
		printExplain(&buf, rep)
		buf.WriteString("\n")
	}
	got := normalizeExplain(buf.String())
	golden := filepath.Join("testdata", "explain.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run UPDATE_GOLDEN=1 go test ./cmd/pdmsort to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("-explain output drifted from the gold:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainFlagEndToEnd: -explain plans without sorting — no output
// file may appear.
func TestExplainFlagEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sorted.bin")
	o := options{
		gen: 1000, seed: 1, universe: 1 << 32, alg: "auto",
		mem: 1024, out: out, scratch: filepath.Join(dir, "scratch"),
		sep: ",", explain: true,
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("-explain wrote the output file: %v", err)
	}
}
