package wire_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// TestFullJobSpecIsFull pins the premise of the round-trip tests: the
// reflection fill leaves no field of the descriptor zero, and every field
// carries a JSON name (a `json:"-"` field could not travel at all).
func TestFullJobSpecIsFull(t *testing.T) {
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		if v.IsZero() {
			t.Errorf("%s is zero in FullJobSpec", path)
		}
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		if v.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if tag := f.Tag.Get("json"); tag == "-" {
				t.Errorf("%s.%s is hidden from JSON", path, f.Name)
			}
			walk(path+"."+f.Name, v.Field(i))
		}
	}
	full := wiretest.FullJobSpec()
	walk("JobSpec", reflect.ValueOf(full))

	raw, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var back wire.JobSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, full) {
		t.Fatalf("JSON round trip changed the descriptor:\n got %+v\nwant %+v", back, full)
	}
}

// TestJobSpecAlgWire pins the request wire around "alg": the short names
// and "auto" parse, unknown names fail at decode time, an Auto descriptor
// omits the field, and "radix" defaults its universe.
func TestJobSpecAlgWire(t *testing.T) {
	var spec wire.JobSpec
	if err := json.Unmarshal([]byte(`{"keys":[2,1],"alg":"auto","blockLatencyUs":40}`), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Alg != core.AlgAuto || spec.BlockLatencyUS != 40 {
		t.Fatalf("decoded %+v", spec)
	}
	if raw, _ := json.Marshal(spec); string(raw) != `{"keys":[2,1],"blockLatencyUs":40}` {
		t.Fatalf("Auto descriptor marshals as %s", raw)
	}
	if err := json.Unmarshal([]byte(`{"keys":[2,1],"alg":"quick3"}`), &spec); err == nil {
		t.Fatal("unknown alg decoded")
	}
	radix := wire.JobSpec{Keys: []int64{2, 1}, Alg: core.AlgRadix}
	if err := radix.Validate(); err != nil || radix.RadixUniverse() != wire.DefaultUniverse {
		t.Fatalf("alg=radix without a universe: %v, universe %d", err, radix.RadixUniverse())
	}
	if u := (&wire.JobSpec{Keys: []int64{1}, Alg: core.AlgLMM3}).RadixUniverse(); u != 0 {
		t.Fatalf("comparison job reports radix universe %d", u)
	}
}
