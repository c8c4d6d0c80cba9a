package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
)

// FuzzSpecJSON fuzzes the spec decode → canonicalize → re-encode cycle,
// the untrusted path behind cmd/campaign -spec, campaignd submissions,
// and cluster cell leases. Pinned properties, for both the legacy
// adversaries/ks form and the v2 scenario form: parsing and
// canonicalization never panic; canonicalization is idempotent; the
// canonical form survives a JSON round-trip unchanged; and every
// spelling of a grid shares one SpecHash — the identity that checkpoint
// validation, the cell cache, and the cluster handshake all key on.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(`{"adversaries":["random-tree"],"ns":[8],"trials":2,"seed":1}`))
	f.Add([]byte(`{"version":1,"adversaries":["k-leaves"],"ks":[2,3],"ns":[8,16],"trials":4,"seed":7,"goal":"gossip"}`))
	f.Add([]byte(`{"version":2,"scenarios":[{"adversary":"k-leaves","params":{"k":[2,3]}}],"ns":[8],"trials":2,"seed":1}`))
	f.Add([]byte(`{"version":2,"scenarios":[{"adversary":"two-phase-path","params":{"switch_at":3}}],"ns":[9],"trials":1,"seed":3,"max_rounds":50}`))
	f.Add([]byte(`{"version":3,"ns":[8],"trials":1,"seed":1}`))
	f.Add([]byte(`{"scenarios":[{"adversary":"nope"}],"ns":[8],"trials":1,"seed":1}`))
	f.Add([]byte(`{"ns":[0],"trials":-1}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := LoadSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		canon, err := spec.Canonical()
		if err != nil {
			// Invalid specs must still hash deterministically (the hash of
			// the raw form), never panic.
			_ = SpecHash(spec)
			return
		}
		// Idempotence: canonicalizing the canonical form is the identity.
		canon2, err := canon.Canonical()
		if err != nil {
			t.Fatalf("canonical spec failed to re-canonicalize: %v\nspec: %s", err, data)
		}
		if !reflect.DeepEqual(canon, canon2) {
			t.Fatalf("canonicalization not idempotent:\n first %+v\nsecond %+v", canon, canon2)
		}
		// Round-trip: the canonical form encodes to JSON that reparses and
		// re-canonicalizes to itself.
		blob, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("marshaling canonical spec: %v", err)
		}
		back, err := LoadSpec(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("reparsing canonical spec: %v\njson: %s", err, blob)
		}
		backCanon, err := back.Canonical()
		if err != nil {
			t.Fatalf("re-canonicalizing reparsed spec: %v\njson: %s", err, blob)
		}
		if !reflect.DeepEqual(canon, backCanon) {
			t.Fatalf("canonical spec does not survive a JSON round-trip:\nbefore %+v\nafter  %+v", canon, backCanon)
		}
		// Every spelling shares one identity.
		if SpecHash(spec) != SpecHash(canon) || SpecHash(canon) != SpecHash(backCanon) {
			t.Fatalf("spec hash differs across equivalent spellings of: %s", data)
		}
	})
}

// FuzzCheckpointLoad fuzzes the checkpoint reader — the untrusted decode
// path behind every resume (cmd/campaign -checkpoint, campaignd restart,
// ResumeCampaign). Pinned property: arbitrary bytes — torn tails,
// corrupt records, foreign headers — never panic; the loader either
// errors or returns a checkpoint whose records are in range and
// convertible to a Completed map, i.e. something a resume can consume
// cleanly.
func FuzzCheckpointLoad(f *testing.F) {
	// A genuine checkpoint, then progressively damaged variants.
	spec := Spec{Adversaries: []string{"random-tree"}, Ns: []int{8}, Trials: 2, Seed: 1}
	var buf bytes.Buffer
	if w, err := NewCheckpointWriter(&buf, spec, 2); err == nil {
		w.Record(JobResult{Index: 0, Measurements: []Measurement{{Cell: "random-tree/n=8", Value: 7}}})
		w.Record(JobResult{Index: 1, Measurements: []Measurement{{Cell: "random-tree/n=8", Value: 9}}})
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-7]) // torn trailing record
	f.Add([]byte(`{"format":"dyntreecast-checkpoint/2","engine":"dyntreecast-engine/3","spec_hash":"x","jobs":2}` + "\n" + `{"index":5,"measurements":[]}` + "\n"))
	f.Add([]byte(`{"format":"dyntreecast-checkpoint/1","spec_hash":"x","jobs":2}` + "\n"))
	f.Add([]byte(`{"format":"dyntreecast-checkpoint/2","engine":"someone-else/9","spec_hash":"x"}` + "\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if cp == nil {
			t.Fatal("LoadCheckpoint returned nil, nil")
		}
		for idx := range cp.Results {
			if idx < 0 || (cp.Jobs > 0 && idx >= cp.Jobs) {
				t.Fatalf("accepted checkpoint holds out-of-range index %d (jobs %d)", idx, cp.Jobs)
			}
		}
		// The resume entry point must consume whatever the loader accepts.
		if got := cp.Completed(); len(got) != len(cp.Results) {
			t.Fatalf("Completed() lost records: %d of %d", len(got), len(cp.Results))
		}
	})
}

// FuzzCellEntry fuzzes the cell-cache entry decoder, the untrusted
// decode path behind every warm cache read and every warehouse ingest.
// Pinned property: on any bytes, DecodeCellEntry accepts exactly when
// json.Unmarshal into the entry shape does, and then yields the same
// cell name, trial count, and per-trial measurement names and values
// (compared bit for bit, so -0 and 0 differ).
func FuzzCellEntry(f *testing.F) {
	entry := func(cell string, trials ...[]Measurement) []byte {
		data, err := encodeCellEntry(cell, trials)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	whole := entry("random-tree/n=8", []Measurement{{"random-tree/n=8", 7}}, []Measurement{{"random-tree/n=8", 9}})
	f.Add(whole)
	f.Add(whole[:len(whole)-5]) // torn
	f.Add(append(whole[:len(whole):len(whole)], "]}"...))
	f.Add(entry("k<&>/n=8", []Measurement{{"k<&>/n=8", 3}}))
	f.Add(entry("e", []Measurement{{"e", 1}, {"f", 2.5}}, nil, []Measurement{}, []Measurement{{"e", -0.125}}))
	f.Add([]byte(`{"Cell":"x","trials":[[{"VALUE":1e2,"cell":"x"}]],"extra":true}`))
	f.Add([]byte(`{"cell":"x","trials":[[{"cell":"x","value":1e400}]]}`))
	f.Add([]byte(`{"cell":"x","trials":[[{"cell":"x","value":01}]]}`))
	f.Add([]byte(`{"cell":"x","trials":[[{"cell":"x","value":1.5}],[{"cell":"x","value":-0}],[{"cell":"x","value":2e3}]]}`))
	f.Add([]byte(`{"cell":"x","trials":[[{"cell":"x","value":9999999999999999}],[{"cell":"x","value":123456789012345678901}]]}`))
	f.Add([]byte(` {"cell":"xé","trials":null} `))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeCellEntry(data)
		var want cellEntry
		werr := json.Unmarshal(data, &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decoder err %v, json.Unmarshal err %v\ninput %q", err, werr, data)
		}
		if err != nil {
			return
		}
		if got.Cell != want.Cell || got.Trials() != len(want.Trials) {
			t.Fatalf("decoded cell %q with %d trials, json.Unmarshal %q with %d\ninput %q",
				got.Cell, got.Trials(), want.Cell, len(want.Trials), data)
		}
		var ms []Measurement
		var own []float64
		for i, trial := range want.Trials {
			ms = got.trial(i, ms[:0])
			if len(ms) != len(trial) {
				t.Fatalf("trial %d: %d measurements, json.Unmarshal %d\ninput %q", i, len(ms), len(trial), data)
			}
			for j, m := range trial {
				if ms[j].Cell != m.Cell || math.Float64bits(ms[j].Value) != math.Float64bits(m.Value) {
					t.Fatalf("trial %d measurement %d: %+v, json.Unmarshal %+v\ninput %q", i, j, ms[j], m, data)
				}
				if m.Cell == want.Cell {
					own = append(own, m.Value)
				}
			}
		}
		if vs := got.Values(want.Cell); !slices.EqualFunc(vs, own, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("Values(%q) = %v, want %v\ninput %q", want.Cell, vs, own, data)
		}
	})
}
