package rstar

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"qdcbir/internal/disk"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// TestKNNQuantMatchesExact is the tentpole property test: on synthetic
// corpora of varying shape, the two-phase quantized search returns the exact
// search's top-k bit-for-bit — same IDs, same float64 distance bits, same
// order — at the default rerank factor, for whole-tree and subtree-restricted
// searches alike.
func TestKNNQuantMatchesExact(t *testing.T) {
	cases := []struct {
		seed  int64
		n     int
		dim   int
		scale float64
	}{
		{seed: 1, n: 60, dim: 2, scale: 1},
		{seed: 2, n: 400, dim: 8, scale: 10},
		{seed: 3, n: 1000, dim: 37, scale: 100},
		{seed: 4, n: 200, dim: 5, scale: 0.01},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(tc.seed))
		pts := randPoints(rng, tc.n, tc.dim, tc.scale)
		tr := BulkLoad(tc.dim, smallCfg, bulkItems(pts), 8)
		if err := tr.SetQuantizedScoring(true); err != nil {
			t.Fatalf("seed %d: enable quantized: %v", tc.seed, err)
		}
		roots := []*Node{tr.Root()}
		if !tr.Root().IsLeaf() {
			roots = append(roots, tr.Root().Children()...)
		}
		for qi := 0; qi < 25; qi++ {
			var q vec.Vector
			switch qi % 3 {
			case 0: // a corpus point
				q = pts[rng.Intn(len(pts))]
			case 1: // a perturbed corpus point
				q = pts[rng.Intn(len(pts))].Clone()
				for j := range q {
					q[j] += rng.NormFloat64() * tc.scale * 0.1
				}
			default: // far outside the training range
				q = make(vec.Vector, tc.dim)
				for j := range q {
					q[j] = rng.NormFloat64() * tc.scale * 10
				}
			}
			for _, root := range roots {
				for _, k := range []int{1, 5, root.Len() + 3} {
					exact, err := tr.KNNFromStatsCtx(context.Background(), root, q, k, nil, nil)
					if err != nil {
						t.Fatalf("exact: %v", err)
					}
					var st SearchStats
					quant, err := tr.KNNQuantFromStatsCtx(context.Background(), root, q, k, 0, nil, &st)
					if err != nil {
						t.Fatalf("quant: %v", err)
					}
					if len(quant) != len(exact) {
						t.Fatalf("seed %d q%d k=%d: %d quantized results, %d exact",
							tc.seed, qi, k, len(quant), len(exact))
					}
					for i := range exact {
						if quant[i].ID != exact[i].ID ||
							math.Float64bits(quant[i].Dist) != math.Float64bits(exact[i].Dist) {
							t.Fatalf("seed %d q%d k=%d: result %d diverges: quant {%d %v} exact {%d %v}",
								tc.seed, qi, k, i, quant[i].ID, quant[i].Dist, exact[i].ID, exact[i].Dist)
						}
						if !quant[i].Point.Equal(exact[i].Point) {
							t.Fatalf("seed %d q%d k=%d: result %d point diverges", tc.seed, qi, k, i)
						}
					}
				}
			}
		}
	}
}

// TestKNNQuantDelegatesWhenInactive: without SetQuantizedScoring the quant
// entry points must silently produce the exact search's answer.
func TestKNNQuantDelegatesWhenInactive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 120, 4, 1)
	tr := BulkLoad(4, smallCfg, bulkItems(pts), 8)
	if tr.QuantizedScoring() {
		t.Fatal("quantized scoring active before enable")
	}
	q := randPoints(rng, 1, 4, 1)[0]
	exact := tr.KNN(q, 7, nil)
	quant := searchOne(t, tr, tr.Root(), q, nil, 7, nil)
	for i := range exact {
		if quant[i].ID != exact[i].ID || quant[i].Dist != exact[i].Dist {
			t.Fatalf("result %d diverges without quantized scoring", i)
		}
	}
}

// TestKNNQuantUncleanCorpusFallsBack: a corpus containing non-finite
// components trains an unclean quantizer (DBErr = +Inf); every quantized
// search must route to the exact path and still agree with it.
func TestKNNQuantUncleanCorpusFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := randPoints(rng, 80, 3, 1)
	pts[17][1] = math.Inf(1)
	pts[42][0] = math.NaN()
	tr := BulkLoad(3, smallCfg, bulkItems(pts), 8)
	if err := tr.SetQuantizedScoring(true); err != nil {
		t.Fatalf("enable: %v", err)
	}
	q := vec.Vector{0.1, -0.2, 0.3}
	exact, _ := tr.KNNFromStatsCtx(context.Background(), tr.Root(), q, 5, nil, nil)
	var st SearchStats
	quant, err := tr.KNNQuantFromStatsCtx(context.Background(), tr.Root(), q, 5, 0, nil, &st)
	if err != nil {
		t.Fatalf("quant: %v", err)
	}
	if st.CodesScanned != 0 {
		t.Errorf("unclean corpus scanned %d codes; want exact-path delegation", st.CodesScanned)
	}
	if len(quant) != len(exact) {
		t.Fatalf("sizes diverge: %d vs %d", len(quant), len(exact))
	}
	for i := range exact {
		if quant[i].ID != exact[i].ID {
			t.Fatalf("result %d diverges on unclean corpus", i)
		}
	}
}

// TestKNNQuantRerankFallback engineers a corpus where code distances carry no
// information — one dimension spans a huge range (setting delta) while the
// query only discriminates along a tiny-range dimension — so the guarantee
// must fail at the default factor, the search must widen, and the result must
// STILL equal the exact search.
func TestKNNQuantRerankFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 64
	pts := make([]vec.Vector, n)
	for i := range pts {
		// dim0 alternates over a 1000-wide range; dim1 is where the true
		// nearest neighbours hide, far below the quantizer step (~3.9).
		pts[i] = vec.Vector{float64(i%2) * 1000, rng.Float64() * 1e-3}
	}
	tr := BulkLoad(2, smallCfg, bulkItems(pts), 8)
	if err := tr.SetQuantizedScoring(true); err != nil {
		t.Fatalf("enable: %v", err)
	}
	q := vec.Vector{0, 5e-4}
	exact, _ := tr.KNNFromStatsCtx(context.Background(), tr.Root(), q, 4, nil, nil)
	var st SearchStats
	quant, err := tr.KNNQuantFromStatsCtx(context.Background(), tr.Root(), q, 4, 0, nil, &st)
	if err != nil {
		t.Fatalf("quant: %v", err)
	}
	if st.RerankFallbacks == 0 {
		t.Error("expected a rerank fallback on a code-degenerate corpus")
	}
	for i := range exact {
		if quant[i].ID != exact[i].ID ||
			math.Float64bits(quant[i].Dist) != math.Float64bits(exact[i].Dist) {
			t.Fatalf("result %d diverges after fallback: quant {%d %v} exact {%d %v}",
				i, quant[i].ID, quant[i].Dist, exact[i].ID, exact[i].Dist)
		}
	}
}

// TestQuantInvalidationOnMutation: Insert and Delete must drop the quantized
// state (the codes mirror the slab, which they invalidate), searches must
// keep answering exactly, and re-enabling must restore the fast path.
func TestQuantInvalidationOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := randPoints(rng, 100, 3, 1)
	tr := BulkLoad(3, smallCfg, bulkItems(pts), 8)
	if err := tr.SetQuantizedScoring(true); err != nil {
		t.Fatalf("enable: %v", err)
	}
	extra := vec.Vector{9, 9, 9}
	tr.Insert(ItemID(100), extra)
	if tr.QuantizedScoring() {
		t.Fatal("quantized state survived Insert")
	}
	q := vec.Vector{0.5, 0.5, 0.5}
	exact := tr.KNN(q, 6, nil)
	quant := searchOne(t, tr, tr.Root(), q, nil, 6, nil)
	for i := range exact {
		if quant[i].ID != exact[i].ID {
			t.Fatalf("post-Insert result %d diverges", i)
		}
	}
	if err := tr.SetQuantizedScoring(true); err != nil {
		t.Fatalf("re-enable: %v", err)
	}
	if !tr.QuantizedScoring() {
		t.Fatal("re-enable did not restore quantized scoring")
	}
	if !tr.Delete(ItemID(100), extra) {
		t.Fatal("delete failed")
	}
	if tr.QuantizedScoring() {
		t.Fatal("quantized state survived Delete")
	}
}

// TestAdoptQuantizedMatchesRetrained: adopting a store-ordered quantizer must
// produce the same search behaviour as training over the tree's own slab —
// the codes are a deterministic function of each point.
func TestAdoptQuantizedMatchesRetrained(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := randPoints(rng, 300, 6, 5)
	flat := make([]float64, 0, len(pts)*6)
	for _, p := range pts {
		flat = append(flat, p...)
	}
	qz, err := store.QuantizeBacking(6, flat)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}

	trained := BulkLoad(6, smallCfg, bulkItems(pts), 8)
	if err := trained.SetQuantizedScoring(true); err != nil {
		t.Fatalf("train: %v", err)
	}
	adopted := BulkLoad(6, smallCfg, bulkItems(pts), 8)
	if err := adopted.AdoptQuantized(qz); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	for qi := 0; qi < 10; qi++ {
		q := randPoints(rng, 1, 6, 5)[0]
		a := searchOne(t, trained, trained.Root(), q, nil, 9, &disk.Counter{})
		b := searchOne(t, adopted, adopted.Root(), q, nil, 9, &disk.Counter{})
		if len(a) != len(b) {
			t.Fatalf("q%d: sizes diverge", qi)
		}
		for i := range a {
			if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
				t.Fatalf("q%d result %d: trained {%d %v} adopted {%d %v}",
					qi, i, a[i].ID, a[i].Dist, b[i].ID, b[i].Dist)
			}
		}
	}

	// Dimension mismatch and out-of-range IDs must be rejected.
	if err := adopted.AdoptQuantized(nil); err == nil {
		t.Error("adopt nil quantizer succeeded")
	}
	wrongDim, _ := store.QuantizeBacking(3, flat[:300])
	if err := adopted.AdoptQuantized(wrongDim); err == nil {
		t.Error("adopt wrong-dim quantizer succeeded")
	}
	short, _ := store.QuantizeBacking(6, flat[:6*10])
	if err := adopted.AdoptQuantized(short); err == nil {
		t.Error("adopt short quantizer succeeded")
	}
}

// TestQuantSubtreeRanges: after packing, every node's [qlo, qhi) must cover
// exactly its subtree's items, and the slab-ordered ID table must agree with
// the leaf blocks.
func TestQuantSubtreeRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pts := randPoints(rng, 500, 4, 1)
	tr := BulkLoad(4, smallCfg, bulkItems(pts), 8)
	if err := tr.SetQuantizedScoring(true); err != nil {
		t.Fatalf("enable: %v", err)
	}
	tr.Walk(func(n *Node, level int) {
		want := len(itemsInSubtree(n, nil))
		if n.qhi-n.qlo != want {
			t.Errorf("node %d: range [%d,%d) holds %d rows, subtree has %d items",
				n.ID(), n.qlo, n.qhi, n.qhi-n.qlo, want)
		}
		if n.IsLeaf() {
			for i, it := range n.Items() {
				if tr.qids[n.qlo+i] != it.ID {
					t.Errorf("node %d row %d: qids %d, item %d", n.ID(), n.qlo+i, tr.qids[n.qlo+i], it.ID)
				}
			}
		}
	})
}

// TestKNNQuantCancellation: a cancelled context must abort the sweep.
func TestKNNQuantCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randPoints(rng, 200, 3, 1)
	tr := BulkLoad(3, smallCfg, bulkItems(pts), 8)
	if err := tr.SetQuantizedScoring(true); err != nil {
		t.Fatalf("enable: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.KNNQuantFromStatsCtx(ctx, tr.Root(), pts[0], 5, 0, nil, nil); err == nil {
		t.Fatal("cancelled search returned no error")
	}
}
