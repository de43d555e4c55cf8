package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/workload"
)

var updateBits = flag.Bool("update-bits", false, "rewrite testdata/engine_bits.golden")

const bitsGolden = "testdata/engine_bits.golden"

// The gate's run-time settings: FullScale's workload size, application
// length and run cap.
const (
	bitMixedJobs  = 20
	bitInstrScale = 1.0
	bitRunCap     = 1800
)

// bitCell is one Fig. 8-style mixed-workload run of the engine gate.
type bitCell struct {
	tech string
	fan  bool
	rate float64
}

// bitCells cover the engine's rarely exercised branches between them: the
// sparse rate leaves ticks with no live application, the fanless dense
// rate trips DTM, and the techniques migrate (cold-cache stalls) while
// TOP-IL and TOP-RL charge management overhead to core 0. The cells run
// the full scale's workload; the quick scale's shorter one never reaches
// the trip temperature.
func bitCells() []bitCell {
	var cells []bitCell
	for _, tech := range Techniques() {
		cells = append(cells,
			bitCell{tech: tech, fan: true, rate: 0.02},
			bitCell{tech: tech, fan: false, rate: 0.16})
	}
	return cells
}

// dumpBits appends one line per leaf of v: "path value", with every
// float64 written as its IEEE-754 bit pattern, so a one-ulp drift anywhere
// in a Result changes the dump.
func dumpBits(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		dumpBits(b, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dumpBits(b, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		fmt.Fprintf(b, "%s.len %d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpBits(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Float64:
		fmt.Fprintf(b, "%s %016x\n", path, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Bool, reflect.String:
		fmt.Fprintf(b, "%s %v\n", path, v.Interface())
	default:
		panic(fmt.Sprintf("dumpBits: unhandled kind %s at %s", v.Kind(), path))
	}
}

// TestEngineBitsGolden pins every float64 of the sim.Result and of every
// AppResult of Fig. 8-style mixed runs, bit for bit, against a golden. The
// rendered reports round to one decimal and the kernel differential tests
// cover seconds of thermal stepping only; this gate sees a one-ulp drift in
// any of the engine's accumulations, so a rewrite of the engine that keeps
// its arithmetic must leave it passing. Rewriting the golden
// (go test ./internal/experiments -run TestEngineBitsGolden -update-bits)
// is only legitimate for a change meant to move the simulation's numbers.
func TestEngineBitsGolden(t *testing.T) {
	p := pipeline(t)
	var b strings.Builder
	var idle, throttled, migrations, overhead float64
	for _, c := range bitCells() {
		mgr, err := p.Manager(c.tech, 0)
		if err != nil {
			t.Fatal(err)
		}
		seed := p.Scale.Seeds[0]
		e := p.newEngine("", c.fan, seed)
		gen := workload.NewGenerator(100+seed, workload.MixedPool(), p.PeakIPS,
			0.2, 0.7, bitInstrScale)
		e.AddJobs(gen.Generate(bitMixedJobs, c.rate))
		env := e.Env()
		idleTicks := 0
		r := e.RunUntil(mgr, bitRunCap, func() bool {
			busy := false
			for core := 0; core < env.Platform().NumCores(); core++ {
				busy = busy || env.CoreOccupied(platform.CoreID(core))
			}
			if !busy {
				idleTicks++
			}
			return e.Done()
		})
		dumpBits(&b, fmt.Sprintf("%s/fan=%v/r%.2f", c.tech, c.fan, c.rate), reflect.ValueOf(r))
		idle += float64(idleTicks)
		throttled += r.ThrottleSeconds
		migrations += float64(r.Migrations)
		overhead += r.OverheadSeconds
	}
	// The gate is only as strong as the branches its cells reach.
	for name, v := range map[string]float64{"idle ticks": idle, "DTM throttle seconds": throttled,
		"migrations": migrations, "overhead seconds": overhead} {
		if v <= 0 {
			t.Errorf("cells never reach %s", name)
		}
	}
	got := b.String()
	if *updateBits {
		if err := os.WriteFile(bitsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(bitsGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update-bits to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("engine results drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("engine results drifted: %d lines, want %d", len(gl), len(wl))
}
