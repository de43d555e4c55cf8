package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/serve"
)

const (
	serveReplicas = 2
	serveModel    = "policy"
	// inferLimitMs is the p99 latency a ladder rate must meet to count
	// towards infer_max_rps.
	inferLimitMs = 50
	// simJobEvery spaces the mixed phase's TOP-IL sim jobs.
	simJobEvery = 500 * time.Millisecond
)

// serveRates is the open-loop rate ladder, in requests per second; the
// mixed phase runs at mid.
var serveRates = []struct {
	name string
	rps  float64
}{{"low", 100}, {"mid", 250}, {"high", 450}}

// inputDim and outputDim are the paper topology's sizes on the HiKey970.
var inputDim, outputDim = features.Dim(8, 2), 8

// workDir is where runs keep their scratch state, inside the checkout.
var workDir = filepath.Join(".bench_build", "work")

// serveBench runs 2 in-process replicas (serve.NewServer with a journal
// store, default batcher, no device pacing) behind cluster.NewRouter,
// each behind the benchmark's own middleware that times the replica
// handler. Traffic is open loop over at most nproc connections.
type serveBench struct {
	seed  int64
	dir   string
	model *nn.MLP
	stop  []func()
	api   apiClient // inference traffic, over at most nproc connections
	ctl   apiClient // sim job submission and polling

	tracing atomic.Bool
	hmu     sync.Mutex
	handler map[string][2]time.Time // X-Request-Id -> replica handler interval
}

func (b *serveBench) setup(seed int64) error {
	b.seed = seed
	b.handler = map[string][2]time.Time{}
	b.model = nn.NewMLP(nnTopology(), seed)
	dir, err := newModelDir("serve", b.model)
	b.dir = dir
	if err != nil {
		return err
	}
	var reps []cluster.Replica
	for i := 0; i < serveReplicas; i++ {
		name := fmt.Sprintf("replica-%d", i)
		store, err := cluster.OpenJournalStore(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		srv := serve.NewServer(serve.Config{
			ModelsDir: filepath.Join(dir, "models"),
			Batch:     serve.DefaultBatcherConfig(),
			Store:     store,
		})
		stopReplica := func() {
			srv.Shutdown(context.Background())
			store.Close()
		}
		url, hs, err := listen(b.middleware(srv.Handler()))
		if err != nil {
			stopReplica()
			return err
		}
		b.stop = append(b.stop, func() {
			hs.Close()
			stopReplica()
		})
		reps = append(reps, cluster.Replica{Name: name, URL: url})
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Replicas: reps})
	if err != nil {
		return err
	}
	url, hs, err := listen(router.Handler())
	if err != nil {
		router.Close()
		return err
	}
	b.stop = append(b.stop, func() {
		hs.Close()
		router.Close()
	})
	b.api, b.ctl = newAPIClient(url, runtime.NumCPU()), newAPIClient(url, 1)
	// Open the connections and the replicas' batchers.
	for _, a := range schedule(seed, 1000, 20*time.Millisecond, inputDim) {
		if _, err := b.api.infer(a.rows, ""); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (b *serveBench) close() {
	for i := len(b.stop) - 1; i >= 0; i-- {
		b.stop[i]()
	}
	b.stop = nil
	b.api.close()
	b.ctl.close()
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}

// newModelDir makes a fresh scratch directory whose models/ subdirectory
// serves m as the model serveModel. It returns the directory even on error,
// for the caller to remove.
func newModelDir(kind string, m *nn.MLP) (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(workDir, kind+"-")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Join(dir, "models"), 0o755); err != nil {
		return dir, err
	}
	return dir, core.SaveModel(m, filepath.Join(dir, "models", serveModel+".json"))
}

// nnTopology is the paper's network for the HiKey970.
func nnTopology() []int { return nn.PaperTopology(inputDim, outputDim) }

// listen serves h on a fresh loopback port until the returned server is
// closed.
func listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), hs, nil
}

// middleware times the replica handler for traced requests, keyed by the
// X-Request-Id the router forwards.
func (b *serveBench) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !b.tracing.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if id := r.Header.Get("X-Request-Id"); id != "" {
			b.hmu.Lock()
			b.handler[id] = [2]time.Time{start, end}
			b.hmu.Unlock()
		}
	})
}

// apiClient talks to the /v1 API at url over at most a fixed number of
// connections.
type apiClient struct {
	url string
	c   *http.Client
}

func newAPIClient(url string, conns int) apiClient {
	return apiClient{url: url, c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}}
}

func (a apiClient) close() {
	if a.c != nil {
		a.c.CloseIdleConnections()
	}
}

// infer posts one /v1/infer request and returns the raw 200 body.
func (a apiClient) infer(rows [][]float64, id string) ([]byte, error) {
	body, err := json.Marshal(serve.InferRequest{Model: serveModel, Inputs: rows})
	if err != nil {
		return nil, err
	}
	return a.post("/v1/infer", body, id, http.StatusOK)
}

// post sends body to path, with id as X-Request-Id when set, and returns
// the response body if the status is want.
func (a apiClient) post(path string, body []byte, id string, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, a.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// outputsMatch reports whether a /v1/infer body carries exactly want.
func outputsMatch(body []byte, want [][]float64) bool {
	var resp serve.InferResponse
	if json.Unmarshal(body, &resp) != nil || len(resp.Outputs) != len(want) {
		return false
	}
	for i := range want {
		if !rowEqual(resp.Outputs[i], want[i]) {
			return false
		}
	}
	return true
}

func rowEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// serveLayers accumulates the traced run's per-request decomposition.
type serveLayers struct {
	router, handler samples // ms
}

func (b *serveBench) measure(rec *recorder, seconds float64, o *outcome) (measurement, error) {
	m := measurement{facets: map[string]float64{}}
	phaseDur := time.Duration(seconds / float64(len(serveRates)+1) * float64(time.Second))
	var layers serveLayers
	var late samples
	backlog, failed, maxRPS := 0, 0, 0.0
	b.tracing.Store(rec != nil)
	defer b.tracing.Store(false)
	for i, ph := range serveRates {
		arr := schedule(b.seed*100+int64(i), ph.rps, phaseDur, inputDim)
		r := b.phase(rec, ph.name, arr, nil, &layers, o)
		b.phaseFacets(m.facets, ph.name, r)
		late = append(late, r.late...)
		backlog, failed = max(backlog, r.backlog), failed+r.failed
		if ph.name == "mid" {
			m.ops = r.lat
		}
		if r.failed == 0 && r.lat.quantile(0.99) <= inferLimitMs && r.backlogEnd <= runtime.NumCPU() {
			maxRPS = ph.rps
		}
	}
	mid := serveRates[1]
	arr := schedule(b.seed*100+int64(len(serveRates)), mid.rps, phaseDur, inputDim)
	var jobs []simJob
	r := b.phase(rec, "mixed", arr, func() { jobs = b.simJobs(rec, phaseDur, o) }, &layers, o)
	b.phaseFacets(m.facets, "mixed", r)
	m.ops = append(m.ops, r.lat...)
	late = append(late, r.late...)
	backlog, failed = max(backlog, r.backlog), failed+r.failed

	var jobS, queued, run samples
	for _, j := range jobs {
		if j.ok {
			jobS = append(jobS, (j.queuedMs+j.runMs)/1e3)
			queued = append(queued, j.queuedMs)
			run = append(run, j.runMs)
		}
	}
	m.facets["infer_max_rps"] = maxRPS
	m.facets["simjob_s"] = jobS.median()
	m.facets["simjob_n"] = float64(len(jobS))
	m.facets["loadgen.late_ms.p99"] = late.quantile(0.99)
	m.facets["loadgen.late_ms.max"] = late.max()
	m.facets["loadgen.backlog_max"] = float64(backlog)
	m.facets["serve.failed"] = float64(failed)
	if rec != nil {
		m.layers = map[string]float64{
			"cluster.router_ms.p50":  layers.router.quantile(0.5),
			"cluster.router_ms.p99":  layers.router.quantile(0.99),
			"cluster.router_ms.n":    float64(len(layers.router)),
			"serve.handler_ms.p50":   layers.handler.quantile(0.5),
			"serve.handler_ms.p99":   layers.handler.quantile(0.99),
			"serve.simjob_queued_ms": queued.median(),
			"serve.simjob_run_ms":    run.median(),
		}
		b.batcherReplay(rec, schedule(b.seed*100+1, mid.rps, phaseDur, inputDim), m.layers, o)
	}
	return m, nil
}

// phaseResult is one open-loop phase.
type phaseResult struct {
	lat, late           samples // ms, successful requests / every request
	failed              int
	backlog, backlogEnd int
}

func (b *serveBench) phaseFacets(f map[string]float64, name string, r phaseResult) {
	f["infer_p50_ms."+name] = r.lat.quantile(0.5)
	f["infer_p99_ms."+name] = r.lat.quantile(0.99)
	f["infer_n."+name] = float64(len(r.lat))
}

// phase replays one schedule against the router, with `alongside` (when
// set) running concurrently, and checks every reply bit for bit against
// nn.MLP.PredictBatch on the same model and rows.
func (b *serveBench) phase(rec *recorder, name string, arr []arrival, alongside func(), layers *serveLayers, o *outcome) phaseResult {
	bodies := make([][]byte, len(arr))
	want := make([][][]float64, len(arr))
	ids := make([]string, len(arr))
	for i, a := range arr {
		bodies[i], _ = json.Marshal(serve.InferRequest{Model: serveModel, Inputs: a.rows})
		want[i] = b.model.PredictBatch(a.rows)
		if rec != nil {
			ids[i] = fmt.Sprintf("pb-%s-%d", name, i)
		}
	}
	got := make([][]byte, len(arr))
	var wg sync.WaitGroup
	if alongside != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			alongside()
		}()
	}
	obs, start, backlog := openLoop(arr, runtime.NumCPU(), func(i int) error {
		body, err := b.api.post("/v1/infer", bodies[i], ids[i], http.StatusOK)
		got[i] = body
		return err
	})
	wg.Wait()

	r := phaseResult{backlog: backlog}
	lastDispatch := obs[len(obs)-1].dispatched
	for i, a := range arr {
		if obs[i].start.After(lastDispatch) {
			r.backlogEnd++
		}
		r.late = append(r.late, lateMs(start, a, obs[i]))
		ok := obs[i].err == nil && outputsMatch(got[i], want[i])
		o.check(ok, "serve %s request %d: %v (outputs match: %v)", name, i, obs[i].err, obs[i].err == nil && ok)
		if !ok {
			r.failed++
			continue
		}
		r.lat = append(r.lat, latencyMs(start, a, obs[i]))
		if rec == nil {
			continue
		}
		group := fmt.Sprintf("serve/%s/%d", name, i)
		due := start.Add(a.due)
		root := rec.add(group, "loadgen.request", -1, due, obs[i].end)
		rec.add(group, "loadgen.wait", root, due, obs[i].start)
		rt := rec.add(group, "cluster.router", root, obs[i].start, obs[i].end)
		b.hmu.Lock()
		h, ok := b.handler[ids[i]]
		delete(b.handler, ids[i])
		b.hmu.Unlock()
		if ok {
			rec.add(group, "serve.handler", rt, h[0], h[1])
			hd := h[1].Sub(h[0])
			layers.handler = append(layers.handler, ms(hd))
			layers.router = append(layers.router, ms(obs[i].end.Sub(obs[i].start)-hd))
		}
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// simJob is one mixed-phase TOP-IL job as finally observed.
type simJob struct {
	ok              bool
	queuedMs, runMs float64
}

// simJobs submits a TOP-IL /v1/sim job through the router every
// simJobEvery for dur, polls each to a terminal state, and checks that
// every job reached done.
func (b *serveBench) simJobs(rec *recorder, dur time.Duration, o *outcome) []simJob {
	n := int(dur / simJobEvery)
	jobs := make([]simJob, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(time.Duration(i) * simJobEvery)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			submitted := time.Now()
			snap, err := b.ctl.runSimJob(serve.SimRequest{
				Policy: "TOP-IL", Model: serveModel, Duration: 4000, Seed: b.seed*1000 + int64(i),
				NumJobs: 8, Rate: 0.05, InstrScale: 0.5,
			})
			jobs[i] = simJob{ok: err == nil && snap.State == serve.StateDone && snap.Result != nil,
				queuedMs: snap.QueuedMs, runMs: snap.RunMs}
			o.check(jobs[i].ok, "serve sim job %d: state %q, %v", i, snap.State, err)
			group := fmt.Sprintf("serve/simjob/%d", i)
			root := rec.add(group, "loadgen.simjob", -1, submitted, time.Now())
			rec.add(group, "serve.simjob", root, submitted,
				submitted.Add(time.Duration((snap.QueuedMs+snap.RunMs)*float64(time.Millisecond))))
		}()
	}
	wg.Wait()
	return jobs
}

// runSimJob submits one job and polls it until it leaves queued/running.
func (a apiClient) runSimJob(req serve.SimRequest) (serve.JobSnapshot, error) {
	var snap serve.JobSnapshot
	body, err := json.Marshal(req)
	if err != nil {
		return snap, err
	}
	data, err := a.post("/v1/sim", body, "", http.StatusAccepted)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for snap.State == serve.StateQueued || snap.State == serve.StateRunning {
		if time.Now().After(deadline) {
			return snap, fmt.Errorf("job %s still %s after 60s", snap.ID, snap.State)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := a.c.Get(a.url + "/v1/jobs/" + snap.ID)
		if err != nil {
			return snap, err
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return snap, err
		}
	}
	return snap, nil
}

// batcherReplay replays a schedule straight into a serve.NewBatcher over
// a timing backend, submitting a request's rows concurrently as the infer
// handler does, to split batcher wait from device compute.
func (b *serveBench) batcherReplay(rec *recorder, arr []arrival, layers map[string]float64, o *outcome) {
	type window struct{ start, end time.Time }
	var mu sync.Mutex
	batchOf := map[*float64]window{}
	var compute samples
	be := &timingBackend{inner: npu.New(b.model), b: &busy{}, onBatch: func(start, end time.Time, rows [][]float64) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range rows {
			batchOf[&r[0]] = window{start, end}
		}
		compute = append(compute, ms(end.Sub(start)))
	}}
	bt := serve.NewBatcher(be, inputDim, serve.DefaultBatcherConfig())
	defer bt.Close()

	var wait samples
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arr {
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			group := fmt.Sprintf("serve/batcher/%d", i)
			submitted := time.Now()
			outs := make([][]float64, len(a.rows))
			var rwg sync.WaitGroup
			for k, row := range a.rows {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					outs[k], _, _ = bt.Submit(context.Background(), row)
				}()
			}
			rwg.Wait()
			root := rec.add(group, "serve.batcher", -1, submitted, time.Now())
			want := b.model.PredictBatch(a.rows)
			ok := true
			mu.Lock()
			for k, row := range a.rows {
				ok = ok && rowEqual(outs[k], want[k])
				w := batchOf[&row[0]]
				wait = append(wait, ms(w.start.Sub(submitted)))
				rec.add(group, "serve.batch_wait", root, submitted, w.start)
				rec.add(group, "npu.infer", root, w.start, w.end)
			}
			mu.Unlock()
			o.check(ok, "serve batcher replay request %d: outputs differ from PredictBatch", i)
		}()
	}
	wg.Wait()
	d, calls, rows := be.b.snapshot()
	layers["serve.batch_wait_ms.p50"] = wait.quantile(0.5)
	layers["serve.batch_wait_ms.p99"] = wait.quantile(0.99)
	layers["serve.batch_wait_ms.n"] = float64(len(wait))
	layers["serve.compute_ms.p50"] = compute.quantile(0.5)
	layers["npu.calls"] = float64(calls)
	if calls > 0 {
		layers["serve.batch_rows.mean"] = float64(rows) / float64(calls)
		layers["npu.rows_per_call"] = float64(rows) / float64(calls)
		layers["npu.us_per_row"] = float64(d/time.Microsecond) / float64(rows)
	}
}
