// Package wiretest builds the fully-populated job descriptor the
// round-trip tests push through every hop (HTTP decode, journal replay,
// the distributed coordinator's commit body): because the fill is driven
// by reflection, a field added to wire.JobSpec is covered the moment it
// exists, and a hop that drops it fails those tests.
package wiretest

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/wire"
)

// FullJobSpec returns a descriptor with every field, at every depth, set
// to a distinct non-zero value.  It is deliberately not a valid job — no
// real job sets every field — so it travels through the hops' own decode
// and encode code, not through Validate.
func FullJobSpec() wire.JobSpec {
	var spec wire.JobSpec
	n := 0
	fill(reflect.ValueOf(&spec).Elem(), &n)
	spec.Alg = core.AlgLMM3 // an arbitrary string is not a name the table parses
	return spec
}

func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), n)
		fill(v.Index(1), n)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint8:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	default:
		panic("wiretest: teach fill about " + v.Kind().String() + " fields")
	}
}
