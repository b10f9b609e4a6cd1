// Command e2ebench is the repository's end-to-end benchmark. It assembles
// real loopback HTTP deployments through the same public constructors the
// qdserve and qdrouter commands use, drives them from one process with at
// most two connections, checks every answer against an in-process
// reference, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as one JSON object on its last line.
//
// Usage:
//
//	bash e2ebench/run.sh --workload feedback-session --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// conns is the client connection budget: one per core of the two-core
// machines the benchmark is sized for.
const conns = 2

// setupRepeats is how many times a run sets its deployment up; setup_s is
// the median, and the last deployment is the one measured.
const setupRepeats = 3

// runBudget bounds one run, so a hung deployment fails instead of stalling.
const runBudget = 170 * time.Second

// Metric is one reported figure.
type Metric struct {
	Name string
	Unit string
}

// endToEnd lists the end-to-end metrics every untraced run reports. The
// step and query timings name each workload's two request classes (see
// README.md for the mapping). Tail latencies are printed with their sample
// counts but are not reported here: on a shared two-core host they spread
// too far from run to run to carry a regression bound.
var endToEnd = []Metric{
	{"setup_s", "s"},
	{"index_mb", "MB"},
	{"step_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"capacity_per_s", "1/s"},
	{"precision", "ratio"},
	{"ok_frac", "ratio"},
}

// perLayer lists the per-layer metrics every traced run reports. A layer a
// workload bypasses reports 0 for all of its metrics.
var perLayer = []Metric{
	{"server.round_ms", "ms"},
	{"server.finalize_ms", "ms"},
	{"server.query_ms", "ms"},
	{"server.write_ms", "ms"},
	{"server.shell_share", "ratio"},
	{"server.resp_kb", "KB"},
	{"server.shed_frac", "ratio"},
	{"server.coalesce_width", "count"},
	{"router.legs_per_req", "count"},
	{"router.leg_ms", "ms"},
	{"router.straggler_ms", "ms"},
	{"router.self_ms", "ms"},
	{"router.singleflight_frac", "ratio"},
	{"router.wire_kb_per_req", "KB"},
	{"shard.search_us", "us"},
	{"shard.merge_us", "us"},
	{"shard.batch_over_serial", "ratio"},
	{"core.round_us", "us"},
	{"core.finalize_us", "us"},
	{"core.groups", "count"},
	{"core.expansions", "count"},
	{"core.bundle_width", "count"},
	{"core.descent_share", "ratio"},
	{"rstar.descent_us", "us"},
	{"rstar.nodes_per_search", "count"},
	{"rstar.rows_per_result", "count"},
	{"rstar.batch_over_serial", "ratio"},
	{"rstar.descent_over_flat", "ratio"},
	{"rstar.rerank_fallback_frac", "ratio"},
	{"vec.ns_per_row", "ns"},
	{"vec.gb_per_s", "GB/s"},
	{"vec.multi_over_serial", "ratio"},
	{"store.table_mb", "MB"},
	{"seg.insert_us", "us"},
	{"seg.delete_us", "us"},
	{"seg.seal_ms", "ms"},
	{"seg.seals", "count"},
	{"seg.compact_ms", "ms"},
	{"seg.compactions", "count"},
	{"seg.write_amp", "ratio"},
	{"seg.segments_per_query", "count"},
	{"seg.tombstone_frac", "ratio"},
	{"seg.query_us", "us"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.backlog", "count"},
	{"loadgen.conns_opened", "count"},
	{"trace.overhead_frac", "ratio"},
}

// Deployment is one workload's running system.
type Deployment interface {
	// measure drives the load phases and records end-to-end figures (and,
	// in a traced run, the spans the replay reads).
	measure(ctx context.Context, r *Run) error
	// check compares the deployment's answers with the in-process reference
	// and counts every mismatch.
	check(ctx context.Context, r *Run) error
	// replay re-runs recorded work single-threaded through each layer's
	// public functions and records the per-layer metrics.
	replay(ctx context.Context, r *Run) error
	// close stops every server and waits for them.
	close()
}

// Workload names a deployment recipe.
type Workload struct {
	Name  string
	Why   string
	Setup func(ctx context.Context, seed int64, tr *Tracer) (Deployment, error)
}

var workloads = []Workload{
	{"feedback-session", "closed-loop hosted QD sessions over the paper's 15,000-image corpus (core, rfs, f64 finalize)", setupFeedback},
	{"routed-embed", "open-loop k-NN and query panels through a router over 3 float32 512-d shard replicas (router, shard, vec)", setupRouted},
	{"ingest-mixed", "open-loop inserts, deletes and query panels on a dynamic SQ8 server (seg write path, compaction)", setupIngest},
}

// Run carries one invocation's settings and results.
type Run struct {
	Seed    int64
	Seconds float64
	Traced  bool
	Tracer  *Tracer

	Attempted  int
	Failed     int
	Mismatches int

	E2E   map[string]float64
	Layer map[string]float64
	Notes []string // human-readable lines printed before the JSON result
}

func (r *Run) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// noteSummary records a timing's sample count and chosen tail percentile.
func (r *Run) noteSummary(name string, s Summary) {
	r.note("%-18s n=%-6d p50=%.3f ms  p%g=%.3f ms", name, s.N, s.P50, s.TailPct, s.Tail)
}

// mismatch counts one answer that differs from the reference.
func (r *Run) mismatch(format string, args ...any) {
	r.Mismatches++
	if r.Mismatches <= 5 {
		r.note("MISMATCH: "+format, args...)
	}
}

// duration is a share of the run's measured time.
func (r *Run) duration(share float64) time.Duration {
	return time.Duration(share * r.Seconds * float64(time.Second))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: feedback-session, routed-embed or ingest-mixed")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured load time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics instead")
	traceOut := flag.String("trace-out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, traceOut string) error {
	var w *Workload
	for i := range workloads {
		if workloads[i].Name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	r := &Run{Seed: seed, Seconds: seconds, Traced: traced, E2E: map[string]float64{}, Layer: map[string]float64{}}
	r.note("workload           %s: %s", w.Name, w.Why)
	if traced {
		r.Tracer = newTracer()
	}
	var dep Deployment
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if dep != nil {
			dep.close()
			dep = nil
			runtime.GC()
		}
		t0 := time.Now()
		d, err := w.Setup(ctx, seed, r.Tracer)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		dep = d
	}
	defer dep.close()
	r.E2E["setup_s"] = median(setups)
	r.note("setup_s            %v (median of %d)", setups, len(setups))
	r.E2E["index_mb"] = liveHeapMB()

	if err := dep.measure(ctx, r); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	if err := dep.check(ctx, r); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if traced {
		if err := dep.replay(ctx, r); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		path := filepath.Join(traceOut, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		spans := r.Tracer.snapshot()
		if err := writeSpans(path, spans); err != nil {
			r.note("spans not written: %v", err)
		} else {
			r.note("%d spans written to %s", len(spans), path)
		}
	}
	if ctx.Err() != nil {
		return errors.New("run exceeded its time budget")
	}
	r.Failed += r.Mismatches
	r.Attempted += r.Mismatches // checks that found a mismatch were attempts too
	if r.Attempted > 0 {
		r.E2E["ok_frac"] = float64(r.Attempted-r.Failed) / float64(r.Attempted)
	}

	res := result{Correct: r.Mismatches == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	list, vals := endToEnd, r.E2E
	if traced {
		list, vals = perLayer, r.Layer
	}
	for _, m := range list {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.note("%s was not measurable (%v); reported as 0", m.Name, v)
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, line := range r.Notes {
		fmt.Println("#", line)
	}
	printTable(list, res.Metrics)
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	if !res.Correct {
		return fmt.Errorf("%d answers differ from the reference", r.Mismatches)
	}
	return nil
}

func printTable(list []Metric, vals map[string]metricValue) {
	names := make([]string, 0, len(list))
	for _, m := range list {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-28s %14.6g %s\n", n, vals[n].Value, vals[n].Unit)
	}
}

// liveHeapMB is the live heap after two forced collections.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// httpServer is one loopback HTTP server, configured like the qdserve and
// qdrouter commands configure theirs.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			WriteTimeout:      60 * time.Second,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return s, nil
}

// close shuts the server down and waits for its serve loop to return.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(ctx context.Context, c *client) error {
	for {
		_, err := c.do(ctx, http.MethodGet, "/healthz", nil, "")
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server never became healthy: %w", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// endpointOf normalizes request paths for span names.
func endpointOf(path string) string {
	if rest, ok := strings.CutPrefix(path, "/v1/sessions/"); ok {
		if _, op, ok := strings.Cut(rest, "/"); ok {
			return "/v1/sessions/{id}/" + op
		}
		return "/v1/sessions/{id}"
	}
	if strings.HasPrefix(path, "/v1/images/") {
		return "/v1/images/{id}"
	}
	return path
}
