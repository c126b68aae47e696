package pdmdapi

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"

	"repro"
)

var updateWirePin = flag.Bool("update", false, "rewrite testdata/wire_keys.golden from this tree's responses")

// jsonKeyPaths collects every object key path in v ("candidates[].algorithm"),
// sorted and de-duplicated: the field-name half of a response's shape.
func jsonKeyPaths(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			jsonKeyPaths(e, p, out)
		}
	case []any:
		for _, e := range x {
			jsonKeyPaths(e, prefix+"[]", out)
		}
	}
}

// TestWireKeySetsPinned pins the JSON field names of the planner's answers
// and of a scenario job's status as the parent of the plan-vocabulary
// refactor emitted them: the facade types are aliases of the internal/plan
// and internal/wire declarations, and this golden is what proves an alias
// swap renames nothing on the wire.  Values are free; only key paths count.
func TestWireKeySetsPinned(t *testing.T) {
	ts, _ := testServer(t)
	scenarioJob := map[string]any{
		"scenario": "topk", "topK": 64, "label": "pin",
		"workload": map[string]any{"kind": "uniform", "n": 8192, "seed": 71},
	}
	id := submitScenario(t, ts.URL, scenarioJob)
	pollUntil(t, ts.URL, id, repro.JobDone)

	var got strings.Builder
	for _, ep := range []struct {
		name, path string
		body       any // nil = GET
	}{
		{"plan", "/plan", map[string]any{
			"workload": map[string]any{"kind": "uniform", "n": 8192, "seed": 1,
				"payload": map[string]any{"minBytes": 4, "maxBytes": 16}}}},
		{"plan/scenario", "/plan/scenario", scenarioJob},
		{"jobs/{id}", fmt.Sprintf("/jobs/%d", id), nil},
	} {
		var resp *http.Response
		var obj map[string]json.RawMessage
		if ep.body != nil {
			resp, obj = postJSON(t, ts.URL+ep.path, ep.body)
		} else {
			var err error
			if resp, err = testClient.Get(ts.URL + ep.path); err != nil {
				t.Fatal(err)
			}
			obj = decodeObject(t, resp)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %v", ep.path, resp.StatusCode, obj)
		}
		raw, _ := json.Marshal(obj)
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		jsonKeyPaths(v, "", set)
		paths := make([]string, 0, len(set))
		for p := range set {
			paths = append(paths, p)
		}
		slices.Sort(paths)
		fmt.Fprintf(&got, "== %s\n%s\n", ep.name, strings.Join(paths, "\n"))
	}

	const golden = "testdata/wire_keys.golden"
	if *updateWirePin {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("wire key sets drifted from %s (a rename on the wire breaks deployed clients and journals)\n--- got\n%s--- want\n%s",
			golden, got.String(), want)
	}
}
