// Command topil-train runs the design-time pipeline of TOP-IL: it collects
// oracle traces on the simulated HiKey970, extracts training examples with
// soft labels, optionally runs the NAS grid search, trains the IL migration
// model(s), and pretrains the TOP-RL baseline's Q-table(s).
//
// Outputs (in -out, default ./artifacts; the pipeline writes the first
// three, and topil-train exits 1 naming the path if one fails to save):
//
//	dataset.json.gz   oracle demonstrations
//	model-<seed>.json trained IL models
//	qtable-<seed>.json.gz pretrained RL tables
//	nas.txt           grid-search report (with -nas)
//
// Use -quick for a fast smoke-scale run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topil-train: ")

	var (
		outDir    = flag.String("out", "artifacts", "output directory")
		quick     = flag.Bool("quick", false, "smoke-scale pipeline (seconds instead of minutes)")
		runNAS    = flag.Bool("nas", false, "also run the Fig. 3 topology grid search")
		scenarios = flag.Int("scenarios", 0, "override number of random oracle scenarios")
	)
	flag.Parse()

	scale := experiments.FullScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	if *scenarios > 0 {
		scale.OracleScenarios = *scenarios
	}
	p := experiments.NewPipeline(scale)
	// The pipeline saves every artifact it builds into -out and reuses
	// partial artifacts across invocations.
	p.ArtifactsDir = *outDir
	p.Progress = func(msg string) { log.Print(msg) }

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	d, err := p.Dataset()
	if err != nil {
		log.Fatal(err)
	}
	saved(p)
	log.Printf("%d oracle examples in %s", d.Len(), filepath.Join(*outDir, "dataset.json.gz"))

	if *runNAS {
		res, err := p.Fig3GridSearch()
		if err != nil {
			log.Fatal(err)
		}
		nasPath := filepath.Join(*outDir, "nas.txt")
		if err := os.WriteFile(nasPath, []byte(res.Render()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Print(res.Render())
	}

	models, err := p.Models()
	if err != nil {
		log.Fatal(err)
	}
	saved(p)
	for i, m := range models {
		path := filepath.Join(*outDir, fmt.Sprintf("model-%d.json", scale.Seeds[i]))
		log.Printf("IL model (seed %d, %d params) in %s", scale.Seeds[i], m.NumParams(), path)
	}

	tables, err := p.QTables()
	if err != nil {
		log.Fatal(err)
	}
	saved(p)
	for i, tbl := range tables {
		path := filepath.Join(*outDir, fmt.Sprintf("qtable-%d.json.gz", scale.Seeds[i]))
		log.Printf("RL Q-table (seed %d, %d entries) in %s", scale.Seeds[i], tbl.Entries(), path)
	}
	log.Print("done")
}

// saved exits naming the path if the pipeline failed to save an artifact.
func saved(p *experiments.Pipeline) {
	if err := p.ArtifactErr(); err != nil {
		log.Fatal(err)
	}
}
