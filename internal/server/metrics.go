package server

import (
	"math"
	"net/http"
	"strconv"
	"time"

	"dyntreecast/internal/metrics"
)

// HTTP-layer instruments (DESIGN.md §3f): request counts and latencies
// per mux route, plus the live stream-subscriber gauge. The route label
// is the ServeMux pattern ("GET /campaigns/{id}"), never the raw URL, so
// cardinality stays bounded no matter what clients request.
var (
	mRequests = metrics.Default.CounterVec("server_http_requests_total",
		"HTTP requests served, by mux route pattern and status code.",
		"route", "code")
	mDurations = metrics.Default.HistogramVec("server_http_request_duration_seconds",
		"HTTP request latency by route. Streams count their full lifetime, so long tails here are subscribers, not slowness.",
		metrics.ExpBuckets(0.001, 4, 8), "route")
	mStreams = metrics.Default.Gauge("server_streams_active",
		"Live /stream subscribers (JSONL and SSE).")
	mCampaignsSubmitted = metrics.Default.Counter("server_campaigns_submitted_total",
		"Campaign specs accepted by POST /campaigns.")
	gRunsKept = metrics.Default.Gauge("server_campaigns_finished_kept",
		"Finished campaigns still served by GET /campaigns/{id}; beyond the server's cap the oldest are evicted.")
	mRunsEvicted = metrics.Default.Counter("server_campaigns_evicted_total",
		"Finished campaigns dropped from GET /campaigns beyond the kept limit; their results stay in the warehouse.")
)

// statusRecorder captures the response status for the request counter
// while passing Flush through, so streaming handlers behave identically
// under instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush implements http.Flusher so /stream keeps flushing through the
// recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps the server's mux with the request counter and latency
// histogram. The route label is resolved through the mux's own matcher
// before serving; unmatched requests share one "(unmatched)" series.
func (s *Server) instrument(w http.ResponseWriter, req *http.Request) {
	_, route := s.mux.Handler(req)
	if route == "" {
		route = "(unmatched)"
	}
	rec := &statusRecorder{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(rec, req)
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	mRequests.With(route, statusText(rec.code)).Inc()
	mDurations.With(route).Observe(time.Since(start).Seconds())
}

// roundRate trims a trials/sec figure to one decimal so status JSON stays
// readable; it is presentation only and never feeds an artifact.
func roundRate(r float64) float64 {
	return math.Round(r*10) / 10
}

// statusText renders a status code label without allocating for the
// common codes.
func statusText(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusAccepted:
		return "202"
	case http.StatusNoContent:
		return "204"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusConflict:
		return "409"
	case http.StatusServiceUnavailable:
		return "503"
	}
	return strconv.Itoa(code)
}
