// Package httpapi exposes the scheduling service over HTTP/JSON: the three
// compute endpoints (/v1/schedule, /v1/sweep, /v1/authblock) with optional
// server-sent-event progress streaming, plus /v1/health and /v1/stats.
//
// The request path is admission → coalesce → schedule → stream: every
// request is validated and content-addressed, joins an identical in-flight
// request when one exists, otherwise takes a bounded admission slot and
// computes under a per-request deadline. The request's context is the
// HTTP request context, so a client disconnect cancels the scheduling work
// (unless coalesced followers still wait on it).
//
// Response bodies are canonical: a warm repeat of an identical request is
// byte-identical. Per-serving accounting travels in headers only —
// X-Secured-Store (hit|miss) and X-Secured-Coalesced (1 when the request
// joined an in-flight computation).
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"secureloop/internal/obs"
	"secureloop/internal/service"
)

// statusClientClosedRequest is nginx's convention for a request whose
// client went away before the response; net/http has no constant for it.
const statusClientClosedRequest = 499

// Options tunes the handler.
type Options struct {
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
}

func (o Options) maxBody() int64 {
	if o.MaxBodyBytes > 0 {
		return o.MaxBodyBytes
	}
	return 8 << 20
}

type handler struct {
	svc  *service.Service
	opts Options
}

// NewHandler builds the HTTP handler over a service.
func NewHandler(svc *service.Service, opts Options) http.Handler {
	h := &handler{svc: svc, opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", h.schedule)
	mux.HandleFunc("POST /v1/sweep", h.sweep)
	mux.HandleFunc("POST /v1/authblock", h.authblock)
	mux.HandleFunc("GET /v1/health", h.health)
	mux.HandleFunc("GET /v1/stats", h.stats)
	return mux
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func (h *handler) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	var panicked *obs.PanicError
	switch {
	case errors.As(err, &panicked):
		// A compute panic is the server's fault however the stage contexts
		// wrapped it, even under a client-error prefix such as "core:".
	case errors.Is(err, service.ErrQueueFull):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(h.svc.RetryAfterSeconds()))
	case errors.Is(err, service.ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, service.ErrRequestTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		// The per-request deadline expired — a designed admission-control
		// outcome, not a server fault; retryable with a longer deadline.
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	case isClientError(err):
		status = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// isClientError reports whether err is the requester's fault: every
// validation and wire-resolution error carries the package's "service:"
// prefix or arises before any computation starts.
func isClientError(err error) bool {
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	if errors.As(err, &syn) || errors.As(err, &typ) {
		return true
	}
	msg := err.Error()
	return strings.HasPrefix(msg, "service:") ||
		strings.HasPrefix(msg, "workload:") ||
		strings.HasPrefix(msg, "arch:") ||
		strings.HasPrefix(msg, "core:") ||
		strings.HasPrefix(msg, "cryptoengine:") ||
		strings.HasPrefix(msg, "authblock:")
}

// decode reads one JSON request body with the size cap applied.
func (h *handler) decode(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, h.opts.maxBody())
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return service.ErrRequestTooLarge
		}
		return fmt.Errorf("service: bad request body: %w", err)
	}
	return nil
}

func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// begin submits one decoded request and serves the pending result as plain
// JSON or as an SSE stream.
func (h *handler) begin(w http.ResponseWriter, r *http.Request, deadlineMS int64, start func(opts service.SubmitOptions) (*service.Pending, error)) {
	sse := wantsSSE(r)
	opts := service.SubmitOptions{
		Deadline: time.Duration(deadlineMS) * time.Millisecond,
		Events:   sse,
	}
	p, err := start(opts)
	if err != nil {
		h.writeError(w, r, err)
		return
	}
	if sse {
		h.serveSSE(w, r, p)
		return
	}
	body, _, storeHit, coalesced, err := p.Result()
	if err != nil {
		h.writeError(w, r, err)
		return
	}
	setAccounting(w.Header(), storeHit, coalesced)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

func setAccounting(hdr http.Header, storeHit, coalesced bool) {
	if storeHit {
		hdr.Set("X-Secured-Store", "hit")
	} else {
		hdr.Set("X-Secured-Store", "miss")
	}
	if coalesced {
		hdr.Set("X-Secured-Coalesced", "1")
	}
}

// serveSSE streams progress events and then the result (or the error) as
// server-sent events: `event: progress` frames carry obs.Event JSON,
// one final `event: result` frame carries the canonical response body, or
// one `event: error` frame carries the error envelope. Accounting headers
// cannot travel after the body starts, so the result frame is preceded by
// an `event: accounting` frame with the same fields as the headers.
func (h *handler) serveSSE(w http.ResponseWriter, r *http.Request, p *service.Pending) {
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	if canFlush {
		fl.Flush()
	}
	writeFrame := func(event string, data []byte) {
		_, _ = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		if canFlush {
			fl.Flush()
		}
	}
	for ev := range p.Events() {
		raw, err := json.Marshal(ev)
		if err != nil {
			continue
		}
		writeFrame("progress", raw)
	}
	body, _, storeHit, coalesced, err := p.Result()
	if err != nil {
		raw, _ := json.Marshal(errorBody{Error: err.Error()})
		writeFrame("error", raw)
		return
	}
	acct, _ := json.Marshal(struct {
		Store     string `json:"store"`
		Coalesced bool   `json:"coalesced"`
	}{Store: hitOrMiss(storeHit), Coalesced: coalesced})
	writeFrame("accounting", acct)
	// The canonical body ends in a newline; trim it so the frame stays a
	// single data line (the client re-appends it).
	writeFrame("result", trimNewline(body))
}

func hitOrMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func trimNewline(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

func (h *handler) schedule(w http.ResponseWriter, r *http.Request) {
	var wire service.ScheduleWire
	if err := h.decode(w, r, &wire); err != nil {
		h.writeError(w, r, err)
		return
	}
	req, err := wire.Resolve()
	if err != nil {
		h.writeError(w, r, err)
		return
	}
	h.begin(w, r, wire.DeadlineMS, func(opts service.SubmitOptions) (*service.Pending, error) {
		return h.svc.BeginSchedule(r.Context(), req, opts)
	})
}

func (h *handler) sweep(w http.ResponseWriter, r *http.Request) {
	var wire service.SweepWire
	if err := h.decode(w, r, &wire); err != nil {
		h.writeError(w, r, err)
		return
	}
	req, err := wire.Resolve()
	if err != nil {
		h.writeError(w, r, err)
		return
	}
	h.begin(w, r, wire.DeadlineMS, func(opts service.SubmitOptions) (*service.Pending, error) {
		return h.svc.BeginSweep(r.Context(), req, opts)
	})
}

func (h *handler) authblock(w http.ResponseWriter, r *http.Request) {
	var wire service.AuthBlockWire
	if err := h.decode(w, r, &wire); err != nil {
		h.writeError(w, r, err)
		return
	}
	req, err := wire.Resolve()
	if err != nil {
		h.writeError(w, r, err)
		return
	}
	h.begin(w, r, wire.DeadlineMS, func(opts service.SubmitOptions) (*service.Pending, error) {
		return h.svc.BeginAuthBlock(r.Context(), req, opts)
	})
}

// healthBody is the /v1/health response.
type healthBody struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	Running  int    `json:"running"`
	Queued   int    `json:"queued"`
}

func (h *handler) health(w http.ResponseWriter, r *http.Request) {
	st := h.svc.Stats()
	body := healthBody{
		Status:   "ok",
		Draining: st.Queue.Draining,
		Running:  st.Queue.Running,
		Queued:   st.Queue.Queued,
	}
	status := http.StatusOK
	if st.Queue.Draining {
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h.svc.Stats())
}
