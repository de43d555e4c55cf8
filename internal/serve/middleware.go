package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"
)

// RequestIDHeader carries the per-request correlation ID; an incoming value
// is respected (gateway-assigned IDs propagate), otherwise one is minted.
// The cluster router forwards it, so one ID spans client -> router ->
// replica.
const RequestIDHeader = "X-Request-Id"

// JobIDHeader carries a router-minted job ID on POST /v1/sim: the cluster
// router assigns IDs so the job shards deterministically and later
// GET /v1/jobs/{id} calls hash to the same replica.
const JobIDHeader = "X-Job-Id"

// idPrefix distinguishes IDs minted by different server instances.
var idPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "serve"
	}
	return hex.EncodeToString(b[:])
}()

var idCounter atomic.Uint64

// newRequestID mints a process-unique request ID.
func newRequestID() string {
	return fmt.Sprintf("%s-%06d", idPrefix, idCounter.Add(1))
}

// StatusWriter records the status code written by a handler, for the
// per-route metrics of the replica and router middleware.
type StatusWriter struct {
	http.ResponseWriter
	Status int // 0 until the handler writes a header or body
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.Status == 0 {
		w.Status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(b []byte) (int, error) {
	if w.Status == 0 {
		w.Status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the service middleware stack: request-ID
// assignment, per-endpoint metrics (count, error classes, latency
// histogram) keyed by the mux pattern, and panic containment (a handler
// panic becomes a 500 and a counted fault, not a dead connection).
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)

		sw := &StatusWriter{ResponseWriter: w}
		start := time.Now()
		span := s.tracer.Start(pattern)
		defer func() {
			if p := recover(); p != nil {
				log.Printf("serve: %s %s [%s]: panic: %v", r.Method, r.URL.Path, id, p)
				if sw.Status == 0 {
					http.Error(sw, "internal error", http.StatusInternalServerError)
				}
			}
			span.End()
			s.metrics.Record(pattern, sw.Status, time.Since(start))
		}()
		h(sw, r)
	}
}
