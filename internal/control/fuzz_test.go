package control_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"autoloop/internal/control"
)

// FuzzParseSpec asserts the LoopSpec decode contract on arbitrary control.v1
// bodies: ParseSpec and ParseSpecs never panic, never return a spec with an
// error, accept only specs that validate, and an accepted spec survives a
// marshal/parse round trip unchanged. The same bytes are also parsed as a
// one-element spec file, which must agree with the single-spec parse.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"case":"power"}`))
	f.Add([]byte(`{"case":"power","name":"cooling-west","mode":"human-on-the-loop","priority":33,"period":"2m","config":{"TempLimitC":80,"StepC":0.5}}`))
	f.Add([]byte(`{"case":"ost","period":90000000000,"human":{"availability":0.8,"median_latency":"15m","latency_cv":0.5,"contingency_after":"1h"}}`))
	// Rejections: unknown field, missing case, bad mode, bad and negative
	// durations, wrong types, trailing and truncated input.
	f.Add([]byte(`{"case":"power","priorty":3}`))
	f.Add([]byte(`{"name":"x"}`))
	f.Add([]byte(`{"case":"power","mode":"manual"}`))
	f.Add([]byte(`{"case":"power","period":"1 fortnight"}`))
	f.Add([]byte(`{"case":"power","period":"-5m"}`))
	f.Add([]byte(`{"case":"power","period":{"m":5}}`))
	f.Add([]byte(`{"case":"power","priority":"high"}`))
	f.Add([]byte(`{"case":"power"},{"case":"ost"}`))
	f.Add([]byte(`{"case":"power","config":`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		file := append(append([]byte{'['}, data...), ']')
		specs, ferr := control.ParseSpecs(file)
		if ferr != nil && specs != nil {
			t.Fatal("ParseSpecs returned both specs and an error")
		}
		for i := range specs {
			if err := specs[i].Validate(); err != nil {
				t.Fatalf("ParseSpecs accepted spec %d that does not validate: %v", i, err)
			}
		}
		spec, err := control.ParseSpec(data)
		if err != nil {
			if !reflect.DeepEqual(spec, control.LoopSpec{}) {
				t.Fatal("ParseSpec returned both a spec and an error")
			}
			if len(specs) == 1 {
				t.Fatalf("spec file of one accepted what ParseSpec rejects: %v", err)
			}
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted a spec that does not validate: %v", err)
		}
		if len(specs) == 1 && !reflect.DeepEqual(specs[0], spec) {
			t.Fatalf("spec file of one parsed to %+v, ParseSpec to %+v", specs[0], spec)
		}
		// Accepted specs must re-marshal and re-parse to the same spec.
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := control.ParseSpec(out)
		if err != nil {
			t.Fatalf("accepted spec does not round trip: %v\n%s", err, out)
		}
		out2, err := json.Marshal(again)
		if err != nil || string(out2) != string(out) {
			t.Fatalf("round trip is not stable (%v):\n%s\n%s", err, out, out2)
		}
	})
}
