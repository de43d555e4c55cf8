package conformance

import (
	"encoding/json"
	"testing"
	"unicode/utf8"
)

// FuzzPackageManifest drives the manifest parser with arbitrary bytes. The
// invariants: ParseManifest never panics, a manifest it accepts survives a
// re-marshal round trip and stays accepted, and every diagnostic carries the
// file label with a positive line number.
func FuzzPackageManifest(f *testing.F) {
	// The valid base manifest and targeted corruptions of it: torn files,
	// an unknown schema version, out-of-range tolerance bands, duplicate
	// scenarios, junk bytes. testdata/fuzz/FuzzPackageManifest holds more.
	f.Add([]byte(goodManifest))
	f.Add([]byte(goodManifest[:len(goodManifest)/3]))
	f.Add([]byte(`{"schemaVersion": 42, "name": "x", "scenarios": []}`))
	f.Add([]byte(`{"schemaVersion": 3, "name": "b", "scenarios": [{"name": "s",
		"duration": 5, "techniques": ["TOP-RL"], "envelopes": [
		{"metric": "energyJ", "technique": "TOP-RL", "min": 9, "max": 1, "boundary": "b"}]}]}`))
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte("[1,2,3]"))
	f.Add([]byte("\x00\xff\xfe"))
	f.Add([]byte(goodManifest + goodManifest))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, diags := ParseManifest("fuzz.json", data)
		for _, d := range diags {
			if d.File != "fuzz.json" {
				t.Fatalf("diagnostic lost its file label: %+v", d)
			}
			if d.Line < 1 {
				t.Fatalf("diagnostic line %d < 1: %+v", d.Line, d)
			}
			if !utf8.ValidString(d.Error()) {
				t.Fatalf("diagnostic is not valid UTF-8: %q", d.Error())
			}
		}
		if m == nil {
			if len(diags) == 0 {
				t.Fatal("nil manifest with no diagnostics")
			}
			return
		}
		if len(diags) != 0 {
			t.Fatalf("manifest returned alongside diagnostics %v", diags)
		}
		// Round trip: an accepted manifest re-encodes to an accepted
		// manifest with the same identity.
		re, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		m2, diags2 := ParseManifest("fuzz.json", re)
		if len(diags2) != 0 {
			t.Fatalf("round trip rejected: %v\nre-encoded: %s", diagList(diags2), re)
		}
		if m2.Name != m.Name || len(m2.Scenarios) != len(m.Scenarios) {
			t.Fatalf("round trip changed identity: %+v vs %+v", m, m2)
		}
	})
}
