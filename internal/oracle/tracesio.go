package oracle

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/platform"
	"repro/internal/workload"
)

// Trace collection is by far the most expensive design-time step (the paper
// reports it dominates training time on the board). TraceSet persistence
// lets traces be collected once and re-swept with different QoS grids,
// label sensitivities or example caps — exactly the decoupling the paper's
// methodology enables.

// traceSetJSON is the serialization schema: the point map (struct keys)
// becomes a flat record list, and app specs are stored by name.
type traceSetJSON struct {
	AoI        string           `json:"aoi"`
	Background []bgJSON         `json:"background"`
	Grid       []int            `json:"grid"`
	NumCores   int              `json:"numCores"`
	Points     []tracePointJSON `json:"points"`
}

type bgJSON struct {
	Name string `json:"name"`
	Core int    `json:"core"`
}

type tracePointJSON struct {
	Core     int     `json:"core"`
	LI       int     `json:"li"`
	BI       int     `json:"bi"`
	AoIIPS   float64 `json:"ips"`   // instr/s
	AoIL2DPS float64 `json:"l2dps"` // accesses per second
	PeakTemp float64 `json:"peak"`  // °C
}

// SaveTraces writes a trace set as gzipped JSON, first simulating every
// point of an on-demand set not read yet.
func SaveTraces(ts *TraceSet, path string) error {
	points, err := ts.fill()
	if err != nil {
		return err
	}
	out := traceSetJSON{
		AoI:      ts.Scenario.AoI.Name,
		Grid:     ts.Grid,
		NumCores: ts.NumCores,
	}
	for _, b := range ts.Scenario.Background {
		out.Background = append(out.Background, bgJSON{Name: b.Spec.Name, Core: int(b.Core)})
	}
	for k, p := range points {
		out.Points = append(out.Points, tracePointJSON{
			Core: int(k.core), LI: k.li, BI: k.bi,
			AoIIPS: p.AoIIPS, AoIL2DPS: p.AoIL2DPS, PeakTemp: p.PeakTemp,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	if err := json.NewEncoder(zw).Encode(out); err != nil {
		zw.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// LoadTraces reads a trace set written by SaveTraces, resolving benchmark
// names against the current catalog. The set has no Config, so it never
// simulates: a point its file lacks is missing.
func LoadTraces(path string) (*TraceSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	var in traceSetJSON
	if err := json.NewDecoder(zr).Decode(&in); err != nil {
		return nil, fmt.Errorf("oracle: parsing %s: %w", path, err)
	}

	aoi, ok := workload.ByName(in.AoI)
	if !ok {
		return nil, fmt.Errorf("oracle: %s: unknown AoI %q", path, in.AoI)
	}
	scn := Scenario{AoI: aoi}
	for _, b := range in.Background {
		spec, ok := workload.ByName(b.Name)
		if !ok {
			return nil, fmt.Errorf("oracle: %s: unknown background %q", path, b.Name)
		}
		scn.Background = append(scn.Background, BackgroundApp{
			Spec: spec, Core: platform.CoreID(b.Core),
		})
	}
	if err := scn.Validate(in.NumCores); err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", path, err)
	}
	ts := &TraceSet{
		Scenario:  scn,
		Grid:      in.Grid,
		NumCores:  in.NumCores,
		FreeCores: scn.FreeCores(in.NumCores),
		points:    make(map[traceKey]func() (TracePoint, error), len(in.Points)),
	}
	for _, p := range in.Points {
		if p.LI < 0 || p.LI >= len(in.Grid) || p.BI < 0 || p.BI >= len(in.Grid) {
			return nil, fmt.Errorf("oracle: %s: point outside grid", path)
		}
		tp := TracePoint{AoIIPS: p.AoIIPS, AoIL2DPS: p.AoIL2DPS, PeakTemp: p.PeakTemp}
		ts.points[traceKey{platform.CoreID(p.Core), p.LI, p.BI}] = func() (TracePoint, error) { return tp, nil }
	}
	return ts, nil
}
