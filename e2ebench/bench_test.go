package main

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, ac := embedCorpus(rand.New(rand.NewSource(7)))
	b, bc := embedCorpus(rand.New(rand.NewSource(7)))
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ac, bc) {
		t.Fatal("embedding corpus differs for the same seed")
	}
	c, _ := embedCorpus(rand.New(rand.NewSource(8)))
	if reflect.DeepEqual(a.Data32[:reDim], c.Data32[:reDim]) {
		t.Fatal("embedding corpus ignores the seed")
	}
	pa, qa := embedRequests(rand.New(rand.NewSource(3)), a, ac)
	pb, qb := embedRequests(rand.New(rand.NewSource(3)), b, bc)
	if !reflect.DeepEqual(pa, pb) || !reflect.DeepEqual(qa, qb) {
		t.Fatal("request pools differ for the same seed")
	}
	if !reflect.DeepEqual(fbPlan(rand.New(rand.NewSource(5)), 150, "s", 64), fbPlan(rand.New(rand.NewSource(5)), 150, "s", 64)) {
		t.Fatal("session plan differs for the same seed")
	}
	draw := func(r *rand.Rand) (int, int) { return r.Intn(3), r.Intn(100) }
	s1 := schedule(rand.New(rand.NewSource(9)), 200, time.Second, draw)
	s2 := schedule(rand.New(rand.NewSource(9)), 200, time.Second, draw)
	if len(s1) != 200 || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("schedule differs for the same seed (%d items)", len(s1))
	}
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99}, {1000, 99}, {999, 98}, {500, 98}, {499, 95}, {200, 95}, {100, 90}, {40, 75}, {20, 50}, {19, 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailPct != 99 || s.Tail != 990 {
		t.Fatalf("summarize = %+v", s)
	}
	if s := summarize(xs[:5]); s.N != 5 || s.TailPct != 0 {
		t.Fatalf("small sample summary = %+v", s)
	}
	if s := summarizeAt(xs, 90); s.TailPct != 90 || s.Tail != 900 {
		t.Fatalf("fixed p90 summary = %+v", s)
	}
	if s := summarizeAt(xs[:100], 99); s.TailPct != 90 {
		t.Fatalf("p99 of 100 samples must fall back to the rule, got %+v", s)
	}
}

func TestLatenessAgainstStalledServer(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 3 {
			time.Sleep(300 * time.Millisecond)
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	cl := newClient(ts.URL, 1)
	defer cl.close()
	sched := make([]Item, 20)
	for i := range sched {
		sched[i].Due = time.Duration(i) * 20 * time.Millisecond
	}
	out := runOpen(context.Background(), sched, 1, time.Second, func(ctx context.Context, i int) error {
		_, err := cl.do(ctx, http.MethodGet, "/", nil, "")
		return err
	})
	for i, s := range out.Samples {
		if !s.Sent || s.Err != nil {
			t.Fatalf("request %d: sent=%v err=%v", i, s.Sent, s.Err)
		}
	}
	// Requests 3..16 fall due during the stall: each leaves late and its
	// latency runs from its scheduled time, not from when it was sent.
	for i := 3; i < 10; i++ {
		s := out.Samples[i]
		if s.Late < 100*time.Millisecond || s.Lat < s.Late {
			t.Errorf("request %d: late %v, latency %v; the stall was not charged", i, s.Late, s.Lat)
		}
	}
	if late := summarizeAt(lateness(out), 50); late.TailPct != 50 || late.Tail < 50 {
		t.Errorf("lateness p%v = %.1f ms misses the stall", late.TailPct, late.Tail)
	}
	if cl.dials.Load() != 1 {
		t.Errorf("opened %d connections, want 1", cl.dials.Load())
	}
}

func TestBacklogGrowsPastCapacity(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(10 * time.Millisecond)
	}))
	defer ts.Close()
	cl := newClient(ts.URL, 1)
	defer cl.close()
	// 400 req/s against a 100 req/s server over one connection.
	sched := schedule(rand.New(rand.NewSource(1)), 400, 500*time.Millisecond, func(*rand.Rand) (int, int) { return 0, 0 })
	out := runOpen(context.Background(), sched, 1, 50*time.Millisecond, func(ctx context.Context, i int) error {
		_, err := cl.do(ctx, http.MethodGet, "/", nil, "")
		return err
	})
	if !growing(out, 400) {
		t.Fatalf("backlog %d (mid %d) not seen as growing", out.Backlog, out.MidBacklog)
	}
	if _, failed := latencies(out, func(int) bool { return true }); failed == 0 {
		t.Fatal("no request was abandoned after the grace period")
	}
}

func TestMaxRateInterpolation(t *testing.T) {
	rung := func(rate, tail float64) Rung { return Rung{Rate: rate, Tail: tail} }
	cases := []struct {
		name   string
		rungs  []Rung
		want   float64
		capped bool
	}{
		{"between rungs", []Rung{rung(100, 10), rung(200, 20), rung(300, 60)}, 250, false},
		{"all pass", []Rung{rung(100, 10), rung(200, 20)}, 200, true},
		{"first rung fails", []Rung{rung(100, 80)}, 50, false},
		{"failing rung's tail is infinite", []Rung{rung(100, 10), rung(200, math.Inf(1))}, 100, false},
		{"backlog alone fails", []Rung{rung(100, 10), {Rate: 200, Tail: 30, Growing: true}}, 100, false},
		{"failures alone fail", []Rung{rung(100, 10), {Rate: 200, Tail: 30, Failed: 1}}, 100, false},
		{"lone failure is skipped", []Rung{rung(100, 10), rung(200, 90), rung(300, 20), rung(400, 60), rung(500, 80)}, 350, false},
		{"failing pair ends the ladder", []Rung{rung(100, 10), rung(200, 70), rung(300, 90), rung(400, 20)}, 150, false},
	}
	for _, c := range cases {
		got, capped := maxRate(c.rungs, 40)
		if math.Abs(got-c.want) > 1e-9 || capped != c.capped {
			t.Errorf("%s: maxRate = %v (capped %v), want %v (capped %v)", c.name, got, capped, c.want, c.capped)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := Span{Start: 0, End: 100}
	kids := []Span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := selfTime(parent, kids); got != 60 {
		t.Fatalf("selfTime = %v, want 60", got)
	}
}
