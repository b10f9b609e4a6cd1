package rstar

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"qdcbir/internal/disk"
	"qdcbir/internal/vec"
)

// The batch search contract is per-query bit-identity with the single-query
// paths: same Neighbors (IDs, float64 distance bits, points), same
// SearchStats deltas, same Accounter traces — for every scan mode, every M,
// mixed per-query ks, whole-tree and subtree-restricted.

func batchQueries(rng *rand.Rand, pts []vec.Vector, m, dim int, scale float64) []vec.Vector {
	qs := make([]vec.Vector, m)
	for i := range qs {
		switch i % 3 {
		case 0:
			qs[i] = pts[rng.Intn(len(pts))]
		case 1:
			qs[i] = pts[rng.Intn(len(pts))].Clone()
			for j := range qs[i] {
				qs[i][j] += rng.NormFloat64() * scale * 0.1
			}
		default:
			qs[i] = make(vec.Vector, dim)
			for j := range qs[i] {
				qs[i][j] = rng.NormFloat64() * scale
			}
		}
	}
	return qs
}

func sameNeighbors(t *testing.T, label string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d batch results, %d single", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID ||
			math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: result %d diverges: batch {%d %v} single {%d %v}",
				label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
		if !got[i].Point.Equal(want[i].Point) {
			t.Fatalf("%s: result %d point diverges", label, i)
		}
	}
}

func sameStats(t *testing.T, label string, got, want SearchStats) {
	t.Helper()
	if got.HeapPops != want.HeapPops || got.NodesRead != want.NodesRead ||
		got.ItemsScored != want.ItemsScored || got.CodesScanned != want.CodesScanned ||
		got.Reranked != want.Reranked || got.RerankFallbacks != want.RerankFallbacks {
		t.Fatalf("%s: stats diverge: batch %+v single %+v", label, got, want)
	}
}

func sameTrace(t *testing.T, label string, got, want *disk.Recorder) {
	t.Helper()
	g, w := got.Trace(), want.Trace()
	if len(g) != len(w) {
		t.Fatalf("%s: trace length %d batch, %d single", label, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: trace[%d] = %d batch, %d single", label, i, g[i], w[i])
		}
	}
}

// TestKNNBatchMatchesSingle pins the exact-f64 batch descent to M independent
// KNNFromStatsCtx calls across tree shapes, batch widths, and mixed ks.
func TestKNNBatchMatchesSingle(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		n     int
		dim   int
		scale float64
	}{
		{seed: 21, n: 80, dim: 3, scale: 1},
		{seed: 22, n: 600, dim: 8, scale: 10},
		{seed: 23, n: 1200, dim: 37, scale: 100},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		pts := randPoints(rng, tc.n, tc.dim, tc.scale)
		tr := BulkLoad(tc.dim, smallCfg, bulkItems(pts), 8)
		tr.SetBlockScoring(true)
		roots := []*Node{tr.Root()}
		if !tr.Root().IsLeaf() {
			roots = append(roots, tr.Root().Children()[0])
		}
		for _, root := range roots {
			for _, m := range []int{1, 2, 3, 4, 5, 8} {
				qs := batchQueries(rng, pts, m, tc.dim, tc.scale)
				ks := make([]int, m)
				for i := range ks {
					ks[i] = []int{1, 5, 10, 0, root.Len() + 2}[i%5]
				}
				accs := make([]disk.Accounter, m)
				sts := make([]*SearchStats, m)
				recs := make([]*disk.Recorder, m)
				for i := range accs {
					recs[i] = &disk.Recorder{}
					accs[i] = recs[i]
					sts[i] = &SearchStats{}
				}
				got, err := tr.KNNBatchFromStatsCtx(context.Background(), root, qs, ks, accs, sts)
				if err != nil {
					t.Fatalf("seed %d m %d: batch: %v", tc.seed, m, err)
				}
				for i := range qs {
					rec := &disk.Recorder{}
					var st SearchStats
					want, err := tr.KNNFromStatsCtx(context.Background(), root, qs[i], ks[i], rec, &st)
					if err != nil {
						t.Fatalf("single: %v", err)
					}
					label := "f64"
					sameNeighbors(t, label, got[i], want)
					sameStats(t, label, *sts[i], st)
					sameTrace(t, label, recs[i], rec)
				}
			}
		}
	}
}

// TestKNNF32BatchMatchesSingle pins the f32 shared-sweep batch to M
// independent KNNF32FromStatsCtx calls.
func TestKNNF32BatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, dim, scale = 900, 37, 50.0
	pts := randPoints(rng, n, dim, scale)
	tr := BulkLoad(dim, smallCfg, bulkItems(pts), 8)
	tr.SetFloat32Scoring(true)
	roots := []*Node{tr.Root()}
	if !tr.Root().IsLeaf() {
		roots = append(roots, tr.Root().Children()[0])
	}
	for _, root := range roots {
		for _, m := range []int{1, 2, 4, 5, 8} {
			qs := batchQueries(rng, pts, m, dim, scale)
			ks := make([]int, m)
			for i := range ks {
				ks[i] = []int{1, 7, 20, 0}[i%4]
			}
			accs := make([]disk.Accounter, m)
			sts := make([]*SearchStats, m)
			recs := make([]*disk.Recorder, m)
			for i := range accs {
				recs[i] = &disk.Recorder{}
				accs[i] = recs[i]
				sts[i] = &SearchStats{}
			}
			got, err := tr.KNNF32BatchFromStatsCtx(context.Background(), root, qs, ks, accs, sts)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			for i := range qs {
				rec := &disk.Recorder{}
				var st SearchStats
				want, err := tr.KNNF32FromStatsCtx(context.Background(), root, qs[i], ks[i], rec, &st)
				if err != nil {
					t.Fatalf("single: %v", err)
				}
				sameNeighbors(t, "f32", got[i], want)
				sameStats(t, "f32", *sts[i], st)
				sameTrace(t, "f32", recs[i], rec)
			}
		}
	}
}

// TestKNNQuantBatchMatchesSingle pins the SQ8 shared-scan batch (including
// per-query certificate checks and widening fallbacks) to M independent
// KNNQuantFromStatsCtx calls.
func TestKNNQuantBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, dim, scale = 900, 16, 10.0
	pts := randPoints(rng, n, dim, scale)
	tr := BulkLoad(dim, smallCfg, bulkItems(pts), 8)
	if err := tr.SetQuantizedScoring(true); err != nil {
		t.Fatalf("enable quantized: %v", err)
	}
	roots := []*Node{tr.Root()}
	if !tr.Root().IsLeaf() {
		roots = append(roots, tr.Root().Children()[0])
	}
	for _, root := range roots {
		for _, m := range []int{1, 2, 4, 5, 8} {
			qs := batchQueries(rng, pts, m, dim, scale)
			// Include a NaN query to exercise the per-query exact fallback.
			if m >= 4 {
				qs[3] = qs[3].Clone()
				qs[3][0] = math.NaN()
			}
			ks := make([]int, m)
			for i := range ks {
				ks[i] = []int{1, 5, 12, 0}[i%4]
			}
			accs := make([]disk.Accounter, m)
			sts := make([]*SearchStats, m)
			recs := make([]*disk.Recorder, m)
			for i := range accs {
				recs[i] = &disk.Recorder{}
				accs[i] = recs[i]
				sts[i] = &SearchStats{}
			}
			got, err := tr.KNNQuantBatchFromStatsCtx(context.Background(), root, qs, ks, 0, accs, sts)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			for i := range qs {
				rec := &disk.Recorder{}
				var st SearchStats
				want, err := tr.KNNQuantFromStatsCtx(context.Background(), root, qs[i], ks[i], 0, rec, &st)
				if err != nil {
					t.Fatalf("single: %v", err)
				}
				sameNeighbors(t, "sq8", got[i], want)
				sameStats(t, "sq8", *sts[i], st)
				sameTrace(t, "sq8", recs[i], rec)
			}
		}
	}
}

// TestKNNBatchUnpackedBlocks: without packed blocks the batch descent takes
// the per-item scoring branch and must still match single-query exactly.
func TestKNNBatchUnpackedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const n, dim, scale = 300, 5, 10.0
	pts := randPoints(rng, n, dim, scale)
	tr := BulkLoad(dim, smallCfg, bulkItems(pts), 8)
	tr.SetBlockScoring(false)
	qs := batchQueries(rng, pts, 4, dim, scale)
	ks := []int{3, 9, 1, 15}
	got, err := tr.KNNBatchFromStatsCtx(context.Background(), tr.Root(), qs, ks, nil, nil)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i := range qs {
		want, err := tr.KNNFromStatsCtx(context.Background(), tr.Root(), qs[i], ks[i], nil, nil)
		if err != nil {
			t.Fatalf("single: %v", err)
		}
		sameNeighbors(t, "unpacked", got[i], want)
	}
}

// TestKNNBatchCancellation: a cancelled context aborts the batch with the
// context's error.
func TestKNNBatchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := randPoints(rng, 500, 8, 10)
	tr := BulkLoad(8, smallCfg, bulkItems(pts), 8)
	tr.SetBlockScoring(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs := batchQueries(rng, pts, 4, 8, 10)
	if _, err := tr.KNNBatchFromStatsCtx(ctx, tr.Root(), qs, []int{5, 5, 5, 5}, nil, nil); err != context.Canceled {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

// TestKNNBatchMismatchedKs: the parallel-slice batch entries reject a ks
// slice whose length differs from qs instead of indexing past its end.
func TestKNNBatchMismatchedKs(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pts := randPoints(rng, 300, 8, 10)
	tr := BulkLoad(8, smallCfg, bulkItems(pts), 8)
	if err := tr.SetQuantizedScoring(true); err != nil {
		t.Fatalf("enable quantized: %v", err)
	}
	ctx := context.Background()
	qs := batchQueries(rng, pts, 4, 8, 10)
	short := []int{5, 5, 5}
	if _, err := tr.KNNBatchFromStatsCtx(ctx, tr.Root(), qs, short, nil, nil); err == nil {
		t.Error("exact batch accepted 4 queries with 3 ks")
	}
	if _, err := tr.KNNF32BatchFromStatsCtx(ctx, tr.Root(), qs, short, nil, nil); err == nil {
		t.Error("f32 batch accepted 4 queries with 3 ks")
	}
	if _, err := tr.KNNQuantBatchFromStatsCtx(ctx, tr.Root(), qs, short, 0, nil, nil); err == nil {
		t.Error("sq8 batch accepted 4 queries with 3 ks")
	}
}

// TestKNNSearchAllocs pins the steady-state allocations of one query through
// KNNSearch: a batch of one must reuse the pooled scratch (selectors, chunk
// buffers, query codes) and walk leaves without allocating, so it costs no
// more than the single-query sweeps it replaced — 4 allocs/op for f32 with
// a nil accounter and 5 for SQ8 with a fresh disk.Counter, at k = 10.
func TestKNNSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	rng := rand.New(rand.NewSource(63))
	ctx := context.Background()
	f32pts := randPoints(rng, 1000, 512, 1)
	f32 := BulkLoad(512, smallCfg, bulkItems(f32pts), 8)
	f32.SetFloat32Scoring(true)
	sq8pts := randPoints(rng, 2000, 37, 1)
	sq8 := BulkLoad(37, smallCfg, bulkItems(sq8pts), 8)
	if err := sq8.SetQuantizedScoring(true); err != nil {
		t.Fatalf("enable quantized: %v", err)
	}
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"f32", 4, func() {
			f32.KNNSearch(ctx, f32.Root(), []Query{{Point: f32pts[3], K: 10}}, nil, 0)
		}},
		{"sq8", 5, func() {
			sq8.KNNSearch(ctx, sq8.Root(), []Query{{Point: sq8pts[5], K: 10, Acc: &disk.Counter{}}}, nil, 0)
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.max {
			t.Errorf("%s: %v allocs/op, want <= %v", tc.name, got, tc.max)
		}
	}
}
