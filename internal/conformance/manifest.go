package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/scenario"
)

// ManifestVersion is the schema version this build reads. Packages carry
// the version explicitly so a future format change fails loudly instead of
// silently misreading old packages.
const ManifestVersion = 3

// Manifest is the versioned root of a conformance package: a named set of
// scenarios, each pairing techniques × backends with golden metric
// envelopes.
type Manifest struct {
	SchemaVersion int    `json:"schemaVersion"`
	Name          string `json:"name"`
	Description   string `json:"description,omitempty"`

	// Scenarios are run independently; each is one simulated workload.
	Scenarios []Scenario `json:"scenarios"`
}

// Scenario describes one simulated workload cell matrix: every listed
// technique runs on every applicable backend under identical platform,
// cooling, seed and arrival settings.
type Scenario struct {
	Name string `json:"name"`

	// Spec holds the run settings, shared with POST /v1/sim. Each cell
	// runs a copy with its policy and backend set from Techniques and
	// Backends, so a manifest leaves policy, model and backend unset.
	scenario.Spec

	// Techniques lists the policies to run (see scenario.Names).
	Techniques []string `json:"techniques"`
	// Backends lists the inference backends for techniques that infer
	// (TOP-IL), by npu.BackendNames name. Default ["npu"]. Techniques
	// without an inference step run once with backend "-".
	Backends []string `json:"backends,omitempty"`

	// Envelopes are the golden metric bands checked after the runs.
	Envelopes []Envelope `json:"envelopes"`
}

// Envelope pins one metric of one technique (× backend) inside an explicit
// tolerance band. Boundary documents the band's applicability — the
// workload, seed and settings it was measured under — so a failure outside
// that boundary reads as "re-measure", not "regression".
type Envelope struct {
	// Metric names the pinned quantity (see MetricNames).
	Metric string `json:"metric"`
	// Technique must be listed in the scenario's Techniques.
	Technique string `json:"technique"`
	// Backend is a backend name or "*" (default) for every backend the
	// technique runs on.
	Backend string `json:"backend,omitempty"`
	// Min and Max bound the accepted value, inclusive on both ends.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Boundary is the mandatory applicability note.
	Boundary string `json:"boundary"`
}

// Package is one loaded conformance package.
type Package struct {
	// Dir is the package directory (holding manifest.json).
	Dir      string
	Manifest Manifest
}

// MetricNames lists the envelope metrics, sorted.
func MetricNames() []string {
	names := make([]string, 0, len(metricDoc))
	for n := range metricDoc {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDoc maps each envelope metric to its unit and meaning.
var metricDoc = map[string]string{
	"peakTempC":     "peak sensor temperature over the run, °C",
	"avgTempC":      "time-averaged sensor temperature, °C",
	"qosViolations": "applications finishing below their QoS target",
	"energyJ":       "total energy over the run, J",
	"migrations":    "application migrations",
	"throttleSec":   "seconds with DTM throttling active",
}

// backends returns the scenario's backend list with its default applied.
func (s *Scenario) backends() []string {
	if len(s.Backends) == 0 {
		return []string{"npu"}
	}
	return s.Backends
}

// run returns the settings one cell runs: the scenario's defaulted Spec
// with the cell's policy and, when it names one, backend.
func (s *Scenario) run(technique, backend string) scenario.Spec {
	r := s.Spec
	r.Policy = technique
	if backend != "-" {
		r.Backend = backend
	}
	return r.WithDefaults()
}

// Diag is one manifest diagnostic, anchored at a file position.
type Diag struct {
	File string
	Line int // 1-based; 0 when no position is known
	Path string
	Msg  string
}

func (d Diag) Error() string {
	pos := d.File
	if d.Line > 0 {
		pos = fmt.Sprintf("%s:%d", d.File, d.Line)
	}
	if d.Path != "" {
		return fmt.Sprintf("%s: %s: %s", pos, d.Path, d.Msg)
	}
	return fmt.Sprintf("%s: %s", pos, d.Msg)
}

// diagList joins diagnostics into one error, one per line.
type diagList []Diag

func (ds diagList) Error() string {
	lines := make([]string, len(ds))
	for i, d := range ds {
		lines[i] = d.Error()
	}
	return strings.Join(lines, "\n")
}

// LoadPackage reads and validates one package directory. Every problem is
// reported as a file:line diagnostic; a bad package never panics.
func LoadPackage(dir string) (*Package, error) {
	file := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	m, diags := ParseManifest(file, data)
	if len(diags) > 0 {
		return nil, diagList(diags)
	}
	if base := filepath.Base(dir); m.Name != base {
		return nil, diagList{{File: file, Line: 1,
			Msg: fmt.Sprintf("package name %q does not match directory %q", m.Name, base)}}
	}
	return &Package{Dir: dir, Manifest: *m}, nil
}

// LoadDir loads every package under root (any directory containing a
// manifest.json), sorted by name. Diagnostics from all bad packages are
// aggregated so one broken package does not mask another.
func LoadDir(root string) ([]*Package, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	var pkgs []*Package
	var diags diagList
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
			continue
		}
		p, err := LoadPackage(dir)
		if err != nil {
			if ds, ok := err.(diagList); ok {
				diags = append(diags, ds...)
				continue
			}
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	if len(diags) > 0 {
		return nil, diags
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("conformance: no packages under %s", root)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Manifest.Name < pkgs[j].Manifest.Name })
	return pkgs, nil
}

// ParseManifest decodes and validates manifest bytes, returning every
// diagnostic found. The file name only labels diagnostics; no I/O happens
// here (the fuzz target drives this function directly).
func ParseManifest(file string, data []byte) (*Manifest, []Diag) {
	lines := newLineIndex(data)
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, []Diag{{File: file, Line: lines.lineOf(decodeErrOffset(err, data)),
			Msg: "manifest: " + err.Error()}}
	}
	// A second document after the manifest object means a torn or
	// concatenated file; reject rather than silently ignoring the tail.
	if dec.More() {
		return nil, []Diag{{File: file, Line: lines.lineOf(dec.InputOffset()),
			Msg: "manifest: trailing data after the manifest object"}}
	}
	offsets, _ := manifestOffsets(data)
	diags := validateManifest(file, &m, offsets, lines)
	if len(diags) > 0 {
		return nil, diags
	}
	return &m, nil
}

// validateManifest applies the semantic rules, anchoring each diagnostic at
// the offending scenario or envelope.
func validateManifest(file string, m *Manifest, offsets map[string]int64, lines lineIndex) []Diag {
	var diags []Diag
	add := func(path, format string, args ...interface{}) {
		line := 1
		if off, ok := offsets[path]; ok {
			line = lines.lineOf(off)
		}
		diags = append(diags, Diag{File: file, Line: line, Path: path,
			Msg: fmt.Sprintf(format, args...)})
	}

	if m.SchemaVersion != ManifestVersion {
		add("", "unknown schema version %d (this build reads version %d)",
			m.SchemaVersion, ManifestVersion)
	}
	if !validName(m.Name) {
		add("", "package name %q must be non-empty lowercase [a-z0-9-]", m.Name)
	}
	if len(m.Scenarios) == 0 {
		add("", "package has no scenarios")
	}

	seen := map[string]bool{}
	for si := range m.Scenarios {
		sc := &m.Scenarios[si]
		path := fmt.Sprintf("scenarios[%d]", si)
		if !validName(sc.Name) {
			add(path, "scenario name %q must be non-empty lowercase [a-z0-9-]", sc.Name)
		} else if seen[sc.Name] {
			add(path, "duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Policy != "" || sc.Model != "" || sc.Backend != "" {
			add(path, "policy, model and backend are set per cell from techniques and backends; leave them unset")
		}
		if len(sc.Techniques) == 0 {
			add(path, "scenario lists no techniques")
		}
		// Every cell runs these settings under one technique and backend.
		if err := sc.ValidateSettings(); err != nil {
			add(path, "%v", err)
		}
		scTechniques := map[string]bool{}
		for _, tech := range sc.Techniques {
			if scTechniques[tech] {
				add(path, "duplicate technique %q", tech)
			}
			scTechniques[tech] = true
			if err := scenario.CheckPolicy(tech); err != nil {
				add(path, "%v", err)
			}
		}
		for _, b := range sc.Backends {
			if err := scenario.CheckBackend(b); err != nil {
				add(path, "%v", err)
			}
		}
		scBackends := toSet(append([]string{"*", "-"}, sc.backends()...))
		for ei := range sc.Envelopes {
			env := &sc.Envelopes[ei]
			epath := fmt.Sprintf("%s.envelopes[%d]", path, ei)
			if _, ok := metricDoc[env.Metric]; !ok {
				add(epath, "unknown metric %q (have %s)", env.Metric, strings.Join(MetricNames(), ", "))
			}
			if !scTechniques[env.Technique] {
				add(epath, "envelope technique %q is not run by scenario %q", env.Technique, sc.Name)
			}
			if env.Backend != "" && !scBackends[env.Backend] {
				add(epath, "envelope backend %q is not run by scenario %q", env.Backend, sc.Name)
			}
			if math.IsNaN(env.Min) || math.IsNaN(env.Max) ||
				math.IsInf(env.Min, 0) || math.IsInf(env.Max, 0) {
				add(epath, "tolerance band [%g, %g] must be finite", env.Min, env.Max)
			} else if env.Min > env.Max {
				add(epath, "tolerance band [%g, %g] is empty (min > max)", env.Min, env.Max)
			}
			if strings.TrimSpace(env.Boundary) == "" {
				add(epath, "envelope has no applicability boundary note")
			}
		}
	}
	return diags
}

// validName accepts the lowercase-kebab identifiers used for package and
// scenario names.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return false
		}
	}
	return true
}

func toSet(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// --- file positions ---

// lineIndex maps byte offsets to 1-based line numbers.
type lineIndex []int64 // starting offset of each line

func newLineIndex(data []byte) lineIndex {
	idx := lineIndex{0}
	for i, b := range data {
		if b == '\n' {
			idx = append(idx, int64(i)+1)
		}
	}
	return idx
}

func (ix lineIndex) lineOf(offset int64) int {
	if offset < 0 {
		return 1
	}
	n := sort.Search(len(ix), func(i int) bool { return ix[i] > offset })
	return n // lines are 1-based; n is the count of starts <= offset
}

// decodeErrOffset extracts the byte offset of a JSON decode error, or -1.
// DisallowUnknownFields reports an unknown key as a plain error without
// an offset, so that key is found by name in the token stream. Best-effort:
// a same-named key that is known where it sits, earlier in the file, is
// found instead of the unknown one.
func decodeErrOffset(err error, data []byte) int64 {
	switch e := err.(type) {
	case *json.SyntaxError:
		return e.Offset - 1
	case *json.UnmarshalTypeError:
		return e.Offset - 1
	}
	if quoted, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
		if key, err := strconv.Unquote(quoted); err == nil {
			_, keys := manifestOffsets(data)
			if off, ok := keys[key]; ok {
				return off
			}
		}
	}
	return -1
}

// manifestOffsets walks the raw token stream recording the byte offset of
// every array element under "scenarios" and "envelopes", keyed by the same
// paths validateManifest uses ("scenarios[0]", "scenarios[0].envelopes[2]").
// It also records the offset of the first object key of each name (its
// closing quote, on the key's line). Best-effort: on any token error the
// partial maps are returned and diagnostics fall back to line 1.
func manifestOffsets(data []byte) (elems, keys map[string]int64) {
	elems, keys = map[string]int64{}, map[string]int64{}
	dec := json.NewDecoder(bytes.NewReader(data))
	type frame struct {
		isObject bool
		key      string // key owning the container (for arrays/objects)
		index    int    // next element index in an array
		path     string // path prefix of elements inside this container
	}
	var stack []frame
	var pendingKey string
	for {
		tok, err := dec.Token()
		if err != nil {
			return elems, keys
		}
		// For a delimiter, InputOffset now sits just past it; the token
		// itself starts one byte earlier.
		off := dec.InputOffset() - 1
		top := func() *frame {
			if len(stack) == 0 {
				return nil
			}
			return &stack[len(stack)-1]
		}
		switch t := tok.(type) {
		case json.Delim:
			switch t {
			case '{', '[':
				parent := top()
				path := ""
				if parent != nil {
					if parent.isObject {
						switch {
						case len(stack) == 1 && pendingKey == "scenarios":
							path = "scenarios"
						case strings.HasPrefix(parent.path, "scenarios[") &&
							!strings.Contains(parent.path, "envelopes") && pendingKey == "envelopes":
							path = parent.path + ".envelopes"
						}
					} else {
						elem := fmt.Sprintf("%s[%d]", parent.path, parent.index)
						parent.index++
						if parent.path != "" {
							elems[elem] = off
						}
						path = elem
					}
				}
				stack = append(stack, frame{isObject: t == '{', key: pendingKey, path: path})
				pendingKey = ""
			case '}', ']':
				stack = stack[:len(stack)-1]
			}
		case string:
			if f := top(); f != nil && f.isObject && pendingKey == "" {
				pendingKey = t
				if _, seen := keys[t]; !seen {
					keys[t] = off
				}
				continue
			}
			// A string value (or array element): consume the pending key.
			if f := top(); f != nil && !f.isObject {
				f.index++
			}
			pendingKey = ""
		default:
			if f := top(); f != nil && !f.isObject {
				f.index++
			}
			pendingKey = ""
		}
	}
}
