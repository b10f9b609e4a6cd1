package rstar

import (
	"context"
	"math/rand"
	"testing"

	"qdcbir/internal/disk"
	"qdcbir/internal/vec"
)

// knnRun captures everything observable about one search so the block-scored
// and scalar paths can be compared field by field.
type knnRun struct {
	neighbors []Neighbor
	stats     SearchStats
	reads     uint64
	accesses  uint64
}

func runKNN(t *testing.T, tr *Tree, q vec.Vector, k int, weights vec.Vector) knnRun {
	t.Helper()
	acc := &disk.Counter{}
	var st SearchStats
	var ns []Neighbor
	var err error
	if weights != nil {
		var out [][]Neighbor
		out, err = tr.KNNSearch(context.Background(), tr.Root(), []Query{{Point: q, K: k, Acc: acc, Stats: &st}}, weights, 0)
		if err == nil {
			ns = out[0]
		}
	} else {
		ns, err = tr.KNNFromStatsCtx(context.Background(), tr.Root(), q, k, acc, &st)
	}
	if err != nil {
		t.Fatalf("knn: %v", err)
	}
	return knnRun{neighbors: ns, stats: st, reads: acc.Reads(), accesses: acc.Accesses()}
}

func sameRun(t *testing.T, label string, a, b knnRun) {
	t.Helper()
	if a.stats != b.stats {
		t.Errorf("%s: SearchStats diverge: block %+v scalar %+v", label, a.stats, b.stats)
	}
	if a.reads != b.reads || a.accesses != b.accesses {
		t.Errorf("%s: accounter traffic diverges: block reads=%d/acc=%d scalar reads=%d/acc=%d",
			label, a.reads, a.accesses, b.reads, b.accesses)
	}
	if len(a.neighbors) != len(b.neighbors) {
		t.Fatalf("%s: result sizes diverge: %d vs %d", label, len(a.neighbors), len(b.neighbors))
	}
	for i := range a.neighbors {
		if a.neighbors[i].ID != b.neighbors[i].ID || a.neighbors[i].Dist != b.neighbors[i].Dist {
			t.Errorf("%s: neighbor %d diverges: %+v vs %+v", label, i, a.neighbors[i], b.neighbors[i])
		}
	}
}

// TestBlockScalarAgreement verifies the PR 3 batch-kernel leaf path and the
// scalar fallback report identical results, identical SearchStats, and
// identical simulated page traffic — the invariant the observer's counters
// depend on.
func TestBlockScalarAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 400, 8, 10)
	tr := packedTree(t, pts)
	if !tr.BlocksPacked() {
		t.Fatal("bulk-loaded tree has no packed blocks")
	}
	weights := vec.Vector{2, 1, 1, 0.5, 1, 1, 3, 1}
	for qi := 0; qi < 10; qi++ {
		q := pts[rng.Intn(len(pts))]
		k := 1 + rng.Intn(30)

		block := runKNN(t, tr, q, k, nil)
		tr.SetBlockScoring(false)
		if tr.BlocksPacked() {
			t.Fatal("SetBlockScoring(false) left blocks packed")
		}
		scalar := runKNN(t, tr, q, k, nil)
		sameRun(t, "unweighted", block, scalar)

		scalarW := runKNN(t, tr, q, k, weights)
		tr.SetBlockScoring(true)
		if !tr.BlocksPacked() {
			t.Fatal("SetBlockScoring(true) did not repack blocks")
		}
		blockW := runKNN(t, tr, q, k, weights)
		sameRun(t, "weighted", blockW, scalarW)
	}
}

// packedTree bulk-loads a packed tree from raw points (test helper).
func packedTree(t *testing.T, pts []vec.Vector) *Tree {
	t.Helper()
	tr := BulkLoad(len(pts[0]), smallCfg, bulkItems(pts), 8)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return tr
}

func TestSetBlockScoringIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 60, 4, 5)
	tr := packedTree(t, pts)
	tr.SetBlockScoring(true) // already packed: no-op
	if !tr.BlocksPacked() {
		t.Fatal("enable on packed tree dropped blocks")
	}
	tr.SetBlockScoring(false)
	tr.SetBlockScoring(false) // already scalar: no-op
	if tr.BlocksPacked() {
		t.Fatal("disable left blocks packed")
	}
	// Results stay correct across repack cycles.
	q := pts[0]
	before := tr.KNN(q, 5, nil)
	tr.SetBlockScoring(true)
	after := tr.KNN(q, 5, nil)
	if len(before) != len(after) {
		t.Fatalf("sizes diverge: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i].ID != after[i].ID || before[i].Dist != after[i].Dist {
			t.Errorf("neighbor %d diverges after repack: %+v vs %+v", i, before[i], after[i])
		}
	}
}
