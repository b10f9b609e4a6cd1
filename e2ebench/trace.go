package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qdcbir/internal/obs"
)

// Span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent names the span that caused this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the tracer's start
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Key    string `json:"key,omitempty"` // legs of one fan-out share it
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory while it is on. A nil Tracer, or one that is
// off, records nothing, so the wrappers it feeds cost one atomic load in
// untraced phases.
type Tracer struct {
	t0  time.Time
	on  atomic.Bool
	seq atomic.Int64

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// active reports whether spans are being recorded.
func (t *Tracer) active() bool { return t != nil && t.on.Load() }

// since is the tracer-relative timestamp of now.
func (t *Tracer) since() int64 { return int64(time.Since(t.t0)) }

// add records a finished span.
func (t *Tracer) add(s Span) {
	s.ID = t.seq.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans in start order with parents linked:
// a router leg becomes the child of its request's router span, and a
// replica's handler span the child of its request's first leg. Server and
// router handler spans are roots.
func (t *Tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	rootOf := map[string]map[string]int64{} // req -> layer -> span id
	for _, s := range spans {
		layer := s.Name[:strings.IndexByte(s.Name+":", ':')]
		if rootOf[s.Req] == nil {
			rootOf[s.Req] = map[string]int64{}
		}
		if _, ok := rootOf[s.Req][layer]; !ok {
			rootOf[s.Req][layer] = s.ID
		}
	}
	parentLayer := map[string]string{"leg": "router", "replica": "leg"}
	for i, s := range spans {
		if s.Parent != 0 {
			continue
		}
		layer := s.Name[:strings.IndexByte(s.Name+":", ':')]
		if pl, ok := parentLayer[layer]; ok {
			spans[i].Parent = rootOf[s.Req][pl]
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans
}

// write stores the spans as JSON lines, once, at the end of the run.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName groups span durations by name.
func byName(spans []Span) map[string][]Span {
	out := map[string][]Span{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// durationsMS lists span durations in milliseconds.
func durationsMS(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// middleware wraps a server's Handler and records one span per request,
// named layer:<endpoint>, carrying the response size. The request id is the
// client's X-Request-Id, or for shard legs the router's trace header.
func (t *Tracer) middleware(layer string, endpoint func(path string) string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			next.ServeHTTP(w, r)
			return
		}
		req := r.Header.Get("X-Request-Id")
		if req == "" {
			req = r.Header.Get(obs.TraceHeader)
		}
		cw := &countingWriter{ResponseWriter: w}
		start := t.since()
		next.ServeHTTP(cw, r)
		t.add(Span{Req: req, Name: layer + ":" + endpoint(r.URL.Path), Start: start, End: t.since(), Bytes: cw.n})
	})
}

// legTripper times every backend request the router sends: one leg span per
// round trip, ending when the router closes the response body, with the
// bytes sent and received. A leg's key hashes its request body, which the
// legs of one fan-out share. record, when set, sees each request body.
type legTripper struct {
	t      *Tracer
	base   http.RoundTripper
	record func(url string, body []byte, key string)
}

func (l *legTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if !l.t.active() {
		return l.base.RoundTrip(req)
	}
	reqID := req.Header.Get(obs.TraceHeader)
	var sentBytes int64
	var key string
	if req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			body, _ := io.ReadAll(rc) // a copy of an in-memory body; it cannot fail
			rc.Close()
			sentBytes = int64(len(body))
			h := fnv.New64a()
			h.Write(body)
			key = fmt.Sprintf("%s/%x", reqID, h.Sum64())
			if l.record != nil {
				l.record(req.URL.String(), body, key)
			}
		}
	}
	start := l.t.since()
	resp, err := l.base.RoundTrip(req)
	if err != nil {
		l.t.add(Span{Req: reqID, Name: "leg:" + req.URL.Path, Start: start, End: l.t.since(), Bytes: sentBytes, Key: key})
		return nil, err
	}
	resp.Body = &legBody{ReadCloser: resp.Body, done: func(n int64) {
		l.t.add(Span{Req: reqID, Name: "leg:" + req.URL.Path, Start: start, End: l.t.since(), Bytes: sentBytes + n, Key: key})
	}}
	return resp, nil
}

// legBody counts a leg's response bytes and ends its span on Close.
type legBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *legBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *legBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent Span, children []Span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}
