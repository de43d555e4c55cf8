package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// fakeReplica is a scripted replica backend for router unit tests; the
// real-serve integration lives in cluster_test.go.
type fakeReplica struct {
	ts *httptest.Server

	mu         sync.Mutex
	reqIDs     []string // X-Request-Id seen, in arrival order
	paths      []string // method + path, in arrival order
	load       float64
	draining   bool
	jobsStatus int  // status for GET /v1/jobs/{id} (default 200)
	infer429   bool // shed every POST /v1/infer with 429 + Retry-After
}

func newFakeReplica() *fakeReplica {
	f := &fakeReplica{jobsStatus: http.StatusOK}
	f.ts = httptest.NewServer(http.HandlerFunc(f.handle))
	return f
}

func (f *fakeReplica) handle(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.reqIDs = append(f.reqIDs, r.Header.Get(requestIDHeader))
	f.paths = append(f.paths, r.Method+" "+r.URL.Path)
	load, draining, jobsStatus := f.load, f.draining, f.jobsStatus
	f.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	switch {
	case r.URL.Path == "/v1/healthz":
		depth := int(load * 10)
		json.NewEncoder(w).Encode(serve.HealthResponse{
			Status: "ok", Draining: draining, Load: load,
			Jobs: serve.QueueHealth{Depth: depth, Cap: 10},
		})
	case r.URL.Path == "/v1/sim":
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "{\"id\":%q}", r.Header.Get(jobIDHeader))
	case r.URL.Path == "/v1/infer":
		f.mu.Lock()
		shed := f.infer429
		f.mu.Unlock()
		if shed {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, "{\"error\":\"overloaded\"}")
			return
		}
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "{\"echo\":%q}", string(body))
	case r.URL.Path == "/v1/jobs":
		fmt.Fprintf(w, "{\"jobs\":[{\"id\":%q}]}", f.ts.URL)
	case r.URL.Path == "/v1/drain":
		f.mu.Lock()
		f.draining = true
		f.mu.Unlock()
		fmt.Fprint(w, "{\"status\":\"draining\"}")
	default: // /v1/jobs/{id} etc.
		w.WriteHeader(jobsStatus)
		fmt.Fprint(w, "{}")
	}
}

func (f *fakeReplica) seenPath(p string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, got := range f.paths {
		if got == p {
			return true
		}
	}
	return false
}

// newTestRouter wires fakes into a router with a fast poll loop.
func newTestRouter(t *testing.T, fakes ...*fakeReplica) (*Router, *httptest.Server) {
	t.Helper()
	reps := make([]Replica, len(fakes))
	for i, f := range fakes {
		reps[i] = Replica{Name: fmt.Sprintf("n%d", i), URL: f.ts.URL}
	}
	rt, err := NewRouter(RouterConfig{
		Replicas:       reps,
		HealthInterval: 20 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts
}

// TestRouterForwardsRequestID pins the correlation contract: an incoming
// X-Request-Id is forwarded to the replica verbatim — never regenerated —
// and echoed on the response; absent one, the router mints an ID and the
// replica still sees exactly that ID.
func TestRouterForwardsRequestID(t *testing.T) {
	f := newFakeReplica()
	defer f.ts.Close()
	_, ts := newTestRouter(t, f)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim",
		bytes.NewReader([]byte(`{"policy":"GTS/ondemand"}`)))
	req.Header.Set(requestIDHeader, "corr-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(requestIDHeader); got != "corr-abc-123" {
		t.Errorf("response request-ID = %q, want the client's", got)
	}

	resp, err = http.Post(ts.URL+"/v1/sim", "application/json",
		bytes.NewReader([]byte(`{"policy":"GTS/ondemand"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get(requestIDHeader)
	if minted == "" || minted == "corr-abc-123" {
		t.Fatalf("router did not mint a fresh ID: %q", minted)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	var sim []string
	for i, p := range f.paths {
		if p == "POST /v1/sim" {
			sim = append(sim, f.reqIDs[i])
		}
	}
	if len(sim) != 2 || sim[0] != "corr-abc-123" || sim[1] != minted {
		t.Fatalf("replica saw request IDs %v, want [corr-abc-123 %s]", sim, minted)
	}
}

func TestRouterShardsByJobID(t *testing.T) {
	a, b := newFakeReplica(), newFakeReplica()
	defer a.ts.Close()
	defer b.ts.Close()
	_, ts := newTestRouter(t, a, b)

	// Submit with an explicit job ID, then read it back: both must land
	// on the same replica, and resubmitting the same ID stays put.
	for _, id := range []string{"job-aaa", "job-bbb", "job-ccc"} {
		for round := 0; round < 2; round++ {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim",
				bytes.NewReader([]byte(`{"policy":"GTS/ondemand"}`)))
			req.Header.Set(jobIDHeader, id)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var body struct {
				ID string `json:"id"`
			}
			json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if body.ID != id {
				t.Fatalf("replica did not receive X-Job-Id: got %q", body.ID)
			}
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		onA := a.seenPath("GET /v1/jobs/" + id)
		onB := b.seenPath("GET /v1/jobs/" + id)
		postA := a.seenPath("POST /v1/sim")
		if onA == onB {
			t.Fatalf("job %s read on both/neither replica (a=%v b=%v)", id, onA, onB)
		}
		if onA != postA && !b.seenPath("POST /v1/sim") {
			t.Fatalf("job %s read and write landed on different replicas", id)
		}
	}
}

func TestRouterFailoverOnTransportError(t *testing.T) {
	dead, alive := newFakeReplica(), newFakeReplica()
	defer alive.ts.Close()
	// A long poll interval freezes the health view: both replicas look
	// up. Killing one after its poll forces forwards to hit the
	// transport error and fail over — the between-polls crash window.
	rt, err := NewRouter(RouterConfig{
		Replicas: []Replica{
			{Name: "n0", URL: dead.ts.URL},
			{Name: "n1", URL: alive.ts.URL},
		},
		HealthInterval: time.Hour,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	defer rt.Close()
	waitPolled(t, rt)
	dead.ts.Close()

	for i := 0; i < 10; i++ {
		resp, err := http.Post(ts.URL+"/v1/sim", "application/json",
			bytes.NewReader([]byte(`{"policy":"GTS/ondemand"}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("request %d: %d (failover did not cover the dead replica)", i, resp.StatusCode)
		}
	}
	if rt.retries.With("n0").Value() == 0 {
		// Some keys may hash to n1 first; with 10 requests at least one
		// should have tried the dead primary.
		t.Error("no failover retries recorded against the dead replica")
	}
}

func TestRouterShedsWhenSaturated(t *testing.T) {
	f := newFakeReplica()
	defer f.ts.Close()
	f.mu.Lock()
	f.load = 1.0
	f.mu.Unlock()
	rt, ts := newTestRouter(t, f)
	waitPolled(t, rt)

	resp, err := http.Post(ts.URL+"/v1/sim", "application/json",
		bytes.NewReader([]byte(`{"policy":"GTS/ondemand"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated cluster -> %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 5 {
		t.Errorf("shed Retry-After = %q, want 1..5", resp.Header.Get("Retry-After"))
	}
	if rt.shed.With("POST /v1/sim").Value() == 0 {
		t.Error("shed counter not incremented")
	}
	// Reads are never shed.
	resp, err = http.Get(ts.URL + "/v1/jobs/whatever")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("read shed with %d", resp.StatusCode)
	}
}

func TestRouterSkipsDrainingReplica(t *testing.T) {
	a, b := newFakeReplica(), newFakeReplica()
	defer a.ts.Close()
	defer b.ts.Close()
	rt, ts := newTestRouter(t, a, b)

	resp, err := http.Post(ts.URL+"/v1/replicas/n0/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain proxy: %d", resp.StatusCode)
	}
	if !a.seenPath("POST /v1/drain") {
		t.Fatal("drain not forwarded to the named replica")
	}
	waitPolled(t, rt)
	time.Sleep(50 * time.Millisecond) // a poll observing draining=true

	for i := 0; i < 8; i++ {
		resp, err := http.Post(ts.URL+"/v1/sim", "application/json",
			bytes.NewReader([]byte(`{"policy":"GTS/ondemand"}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("request %d hit %d while n0 drains", i, resp.StatusCode)
		}
	}
	if a.seenPath("POST /v1/sim") {
		t.Error("draining replica still received new work")
	}
	resp, err = http.Post(ts.URL+"/v1/replicas/ghost/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown replica drain -> %d", resp.StatusCode)
	}
}

func TestRouterJobNotFoundFallback(t *testing.T) {
	a, b := newFakeReplica(), newFakeReplica()
	defer a.ts.Close()
	defer b.ts.Close()
	// Script: every replica 404s -> client gets 404; one replica knows
	// the job -> the router finds it wherever it lives.
	a.mu.Lock()
	a.jobsStatus = http.StatusNotFound
	a.mu.Unlock()
	_, ts := newTestRouter(t, a, b)

	resp, err := http.Get(ts.URL + "/v1/jobs/some-job")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job lookup = %d, want 200 via successor fallback", resp.StatusCode)
	}

	b.mu.Lock()
	b.jobsStatus = http.StatusNotFound
	b.mu.Unlock()
	resp, err = http.Get(ts.URL + "/v1/jobs/truly-missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job = %d, want 404", resp.StatusCode)
	}
}

func TestRouterJobsFanout(t *testing.T) {
	a, b := newFakeReplica(), newFakeReplica()
	defer a.ts.Close()
	defer b.ts.Close()
	_, ts := newTestRouter(t, a, b)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if len(body.Jobs) != 2 {
		t.Fatalf("fan-out merged %d job lists, want 2", len(body.Jobs))
	}
}

func TestRouterClusterTopology(t *testing.T) {
	a, b := newFakeReplica(), newFakeReplica()
	defer a.ts.Close()
	defer b.ts.Close()
	rt, ts := newTestRouter(t, a, b)
	waitPolled(t, rt)

	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The topology response is part of the /v1 wire contract: it must
	// decode strictly into the router's types, as exactly one JSON value,
	// and re-encode to the same JSON tree (so no key is missing).
	var topo struct {
		Replicas []ReplicaStatus `json:"replicas"`
		Vnodes   int             `json:"vnodes"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&topo); err != nil {
		t.Fatalf("/v1/cluster violates its wire contract: %v\n%s", err, raw)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("/v1/cluster: data after the JSON value\n%s", raw)
	}
	re, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	var got, want interface{}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(re, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/v1/cluster does not round-trip through its types:\n got %s\nwant %s", raw, re)
	}
	if len(topo.Replicas) != 2 || topo.Vnodes != DefaultVnodes {
		t.Fatalf("topology = %+v", topo)
	}
	for _, r := range topo.Replicas {
		if !r.Up {
			t.Errorf("replica %s reported down: %+v", r.Name, r)
		}
	}

	var h RouterHealth
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" || h.Available != 2 {
		t.Errorf("router health = %+v", h)
	}
}

// waitPolled blocks until every replica has completed at least one
// health poll.
func waitPolled(t *testing.T, rt *Router) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, st := range rt.reps {
			st.mu.Lock()
			if !st.polled {
				all = false
			}
			st.mu.Unlock()
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("replicas never polled")
}

// TestCloseCancelsInflightPoll pins the shutdown contract: a health poll
// wedged on an unresponsive replica must not hold Close hostage until the
// HTTP client timeout — the router's lifetime context cancels it.
func TestCloseCancelsInflightPoll(t *testing.T) {
	polled := make(chan struct{}, 8)
	blocker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case polled <- struct{}{}:
		default:
		}
		<-r.Context().Done() // hang until the router gives up
	}))
	defer blocker.Close()

	// HealthInterval 500ms means the poll's own timeout is 2s; a prompt
	// Close proves cancellation, not timeout, ended the request.
	rt, err := NewRouter(RouterConfig{
		Replicas:       []Replica{{Name: "n0", URL: blocker.URL}},
		HealthInterval: 500 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-polled:
	case <-time.After(5 * time.Second):
		t.Fatal("replica never polled")
	}
	start := time.Now()
	rt.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a wedged poll; the lifetime context should cancel it", d)
	}
}

// TestPollReusesConnection pins the drain-before-close behaviour: the
// health poller must leave the keep-alive connection reusable even when
// the replica pads its response beyond what the JSON decoder consumes.
// Without the drain every poll dials a fresh connection.
func TestPollReusesConnection(t *testing.T) {
	hits := make(chan struct{}, 16)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}`))
		w.Write(bytes.Repeat([]byte(" "), 16<<10)) // padding the decoder won't read
		select {
		case hits <- struct{}{}:
		default:
		}
	}))
	var mu sync.Mutex
	conns := 0
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			mu.Lock()
			conns++
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()

	rt, err := NewRouter(RouterConfig{
		Replicas:       []Replica{{Name: "n0", URL: srv.URL}},
		HealthInterval: 20 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	for i := 0; i < 4; i++ {
		select {
		case <-hits:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d polls arrived", i)
		}
	}
	mu.Lock()
	got := conns
	mu.Unlock()
	if got > 2 {
		t.Fatalf("4 polls used %d connections; draining the body should let keep-alive reuse one", got)
	}
}
