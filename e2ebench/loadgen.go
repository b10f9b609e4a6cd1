package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Item is one request of an open-loop schedule.
type Item struct {
	Due  time.Duration // scheduled send time, as an offset from the phase start
	Kind int           // workload-defined request class
	Arg  int           // workload-defined argument (pool index, insert number, ...)
}

// Request classes of the open-loop workloads.
const (
	kindKNN = iota
	kindQuery
	kindInsert
	kindDelete
)

// Sample is the outcome of one scheduled request. Lat runs from the
// scheduled send time to the end of the response body, so a stall charges
// its wait to every request queued behind it. Late is how far behind
// schedule the request was actually sent.
type Sample struct {
	Kind int
	Sent bool
	Lat  time.Duration
	Late time.Duration
	Err  error
}

// Outcome is one open-loop phase.
type Outcome struct {
	Samples []Sample // aligned with the schedule
	// MidBacklog and Backlog count requests already due but not yet sent,
	// halfway through the schedule and when its last request fell due.
	MidBacklog int
	Backlog    int
}

// errAbandoned marks a request that was still unsent when the phase's grace
// period ran out.
var errAbandoned = errors.New("abandoned: still unsent when the phase ended")

// runOpen sends sched at its scheduled times, in order, over at most conns
// requests in flight. A request whose slot is busy waits and is sent late;
// requests still unsent grace after the last one fell due are abandoned.
// do performs request i and returns once its response has been read.
func runOpen(ctx context.Context, sched []Item, conns int, grace time.Duration, do func(ctx context.Context, i int) error) Outcome {
	out := Outcome{Samples: make([]Sample, len(sched))}
	if len(sched) == 0 {
		return out
	}
	span := sched[len(sched)-1].Due
	// Every phase starts from a collected heap, so collections fall at
	// comparable points of comparable phases.
	runtime.GC()
	start := time.Now()
	stop, cancel := context.WithDeadline(ctx, start.Add(span+grace))
	defer cancel()
	var next, sent atomic.Int64

	// The backlog probes run on their own timers so that a stalled server
	// cannot delay them.
	dueBy := func(t time.Duration) int {
		return sort.Search(len(sched), func(i int) bool { return sched[i].Due > t })
	}
	var mid, end atomic.Int64
	probe := func(at time.Duration, dst *atomic.Int64) *time.Timer {
		return time.AfterFunc(at, func() { dst.Store(int64(dueBy(at)) - sent.Load()) })
	}
	midTimer := probe(span/2, &mid)
	endTimer := probe(span, &end)

	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].Due)
				if d := time.Until(due); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-stop.Done():
						t.Stop()
					}
				}
				out.Samples[i].Kind = sched[i].Kind
				if stop.Err() != nil {
					out.Samples[i].Err = errAbandoned
					continue
				}
				sendAt := time.Now()
				sent.Add(1)
				err := do(ctx, i)
				out.Samples[i] = Sample{
					Kind: sched[i].Kind,
					Sent: true,
					Lat:  time.Since(due),
					Late: sendAt.Sub(due),
					Err:  err,
				}
			}
		}()
	}
	wg.Wait()
	// Every request has been sent or abandoned by now; a probe that has not
	// fired yet would find nothing left waiting.
	midTimer.Stop()
	endTimer.Stop()
	out.MidBacklog, out.Backlog = int(mid.Load()), int(end.Load())
	return out
}

// schedule spaces arrivals evenly at rate per second for dur, each
// arrival's class and argument drawn by draw. Even spacing keeps queueing
// from random bursts out of the measurement, so latency tracks the system.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, draw func(*rand.Rand) (kind, arg int)) []Item {
	n := int(rate * dur.Seconds())
	out := make([]Item, n)
	for i := range out {
		kind, arg := draw(rng)
		out[i] = Item{Due: time.Duration(float64(i) / rate * float64(time.Second)), Kind: kind, Arg: arg}
	}
	return out
}

// latencies lists the latencies in milliseconds of the samples whose class
// passes keep; failed or abandoned requests count as +Inf, since a refused
// request misses every latency limit.
func latencies(out Outcome, keep func(kind int) bool) (lat []float64, failed int) {
	for _, s := range out.Samples {
		if !keep(s.Kind) {
			continue
		}
		if s.Err != nil {
			failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(s.Lat))
	}
	return lat, failed
}

// lateness lists how late each sent request left, in milliseconds.
func lateness(out Outcome) []float64 {
	var late []float64
	for _, s := range out.Samples {
		if s.Sent {
			late = append(late, ms(s.Late))
		}
	}
	return late
}

// growing reports whether an open-loop phase ended with a backlog that had
// grown since its midpoint and exceeds what a short stall explains: more
// than a tenth of a second's worth of requests, and more than two per
// connection.
func growing(out Outcome, rate float64) bool {
	floor := 2 * conns
	if f := int(rate / 10); f > floor {
		floor = f
	}
	return out.Backlog > floor && out.Backlog > out.MidBacklog
}

// climb runs the capacity ladder: each rung offers one rate of the mix for
// dur. A rung fails when its read tail misses limit, a request fails, or
// its backlog grows; the climb stops after two consecutive failing rungs.
func climb(ctx context.Context, seed int64, rates []float64, dur time.Duration, limit, tailPct float64,
	draw func(*rand.Rand) (kind, arg int), isRead func(kind int) bool,
	send func(ctx context.Context, it Item, reqID string) error) []Rung {
	var rungs []Rung
	for i, rate := range rates {
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		sched := schedule(rng, rate, dur, draw)
		out := runOpen(ctx, sched, conns, dur/2, func(ctx context.Context, j int) error {
			return send(ctx, sched[j], "")
		})
		lat, failed := latencies(out, isRead)
		rung := Rung{Rate: rate, Tail: summarizeAt(lat, tailPct).Tail, Failed: failed, Backlog: out.Backlog, Growing: growing(out, rate)}
		rungs = append(rungs, rung)
		if ctx.Err() != nil {
			break
		}
		if n := len(rungs); n >= 2 && !rungs[n-1].passes(limit) && !rungs[n-2].passes(limit) {
			break
		}
	}
	return rungs
}

// client issues JSON requests to one base URL over a bounded connection
// pool, draining every response body so that connections are reused; it
// counts the connections it had to open.
type client struct {
	hc    *http.Client
	base  string
	dials atomic.Int64
}

func newClient(base string, conns int) *client {
	c := &client{base: base}
	d := &net.Dialer{Timeout: 5 * time.Second}
	c.hc = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
	return c
}

// statusError is a non-2xx reply.
type statusError struct {
	Status int
	Body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Status, e.Body) }

// do sends one request and returns the whole response body. reqID, when
// set, travels as X-Request-Id so server-side spans join the client's.
func (c *client) do(ctx context.Context, method, path string, body []byte, reqID string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	raw, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	if resp.StatusCode >= 300 {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		return nil, &statusError{Status: resp.StatusCode, Body: string(bytes.TrimSpace(raw))}
	}
	return raw, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }
