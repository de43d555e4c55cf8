package main

// references holds, per workload, the output digests recorded for seed 1
// (the default) on the code this benchmark was written against: the
// design dataset and model digests, the Fig. 8/10 render digest, and the
// online episode's promotion sequence and final active version. Runs on
// other seeds get the structural and within-run checks only. Serve needs
// no reference: every reply is checked against nn.MLP.PredictBatch.
var references = map[string]map[int64]string{
	"design":   {1: "6377c206c84c8dc3 4d9dd075dd8fe85f"},
	"evaluate": {1: "784faa1a0dc279dc"},
	"online":   {1: "PPPR v4"},
}
