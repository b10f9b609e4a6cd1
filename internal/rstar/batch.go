package rstar

// This file is the k-NN entry point. KNNSearch answers M queries over one
// subtree — the localized multipoint k-NN of the paper's §3.3 issues every
// final subquery as one such subtree-restricted search — and takes its path
// from the tree's own state, so callers never switch on a scan mode:
//
//   - weights given: the exact best-first descent under the weighted metric,
//     one descent per query (search.go);
//   - float32 scoring on: one linear sweep of the subtree's float32 mirror
//     rows shared by all M queries (f32.go);
//   - SQ8 scoring on over a clean corpus: one shared phase-1 code sweep, then
//     a per-query exact rerank and certificate (quant.go);
//   - otherwise: the exact float64 descent, one per query.
//
// There is exactly one body per mode, and a single query is a batch of one.
// Each query's own operation sequence (accounter accesses, effort counters,
// tie resolution) does not depend on the batch around it, and the
// multi-query kernels (vec.*Multi) are bit-identical per query to the
// single-query kernels, so batching changes throughput, never answers.

import (
	"context"
	"fmt"

	"qdcbir/internal/disk"
	"qdcbir/internal/vec"
)

// Query is one k-NN request of a KNNSearch batch.
type Query struct {
	Point vec.Vector
	K     int            // K <= 0 yields a nil result
	Acc   disk.Accounter // pages the search reads; nil disables accounting
	Stats *SearchStats   // effort counters; nil disables accumulation
}

// KNNSearch answers every query in qs restricted to the subtree rooted at n:
// out[j] holds query j's nearest items ordered ascending (Dist, ID). weights,
// when non-nil, selects the diagonal-weighted metric (always the exact
// float64 descent); rerankFactor is the SQ8 candidate multiplier (<= 0 uses
// DefaultRerankFactor) and is ignored in the other modes. The scan mode is
// the tree's: see the file comment.
func (t *Tree) KNNSearch(ctx context.Context, n *Node, qs []Query, weights vec.Vector, rerankFactor int) ([][]Neighbor, error) {
	switch {
	case n == nil || n.Len() == 0:
		return make([][]Neighbor, len(qs)), ctx.Err()
	case weights == nil && t.f32OK:
		return t.sweepF32(ctx, n, qs)
	case weights == nil && t.quantOK && t.quant.Clean():
		return t.sweepQuant(ctx, n, qs, rerankFactor)
	}
	return t.descendAll(ctx, n, qs, weights)
}

// descendAll runs one exact descent per query.
func (t *Tree) descendAll(ctx context.Context, n *Node, qs []Query, weights vec.Vector) ([][]Neighbor, error) {
	out := make([][]Neighbor, len(qs))
	for j, q := range qs {
		ns, err := t.descend(ctx, n, q.Point, weights, q.K, q.Acc, q.Stats)
		if err != nil {
			return nil, err
		}
		out[j] = ns
	}
	return out, nil
}

// chargeLeaves reports every leaf page under n to acc (nil reports nothing)
// in depth-first order — the pages a slab sweep of n's rows reads — and
// returns how many there are.
func chargeLeaves(n *Node, acc disk.Accounter) uint64 {
	if n.leaf {
		if acc != nil {
			acc.Access(n.id)
		}
		return 1
	}
	var c uint64
	for _, ch := range n.children {
		c += chargeLeaves(ch, acc)
	}
	return c
}

// first unwraps a batch of one.
func first(out [][]Neighbor, err error) ([]Neighbor, error) {
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// The wrappers below keep the names the benchmark's per-layer replay calls.
// KNNF32* and KNNQuant* are KNNSearch with the tree picking the mode (a tree
// without that mode enabled answers through whichever path it has);
// KNNBatchFromStatsCtx is KNNFromStatsCtx per query. accs and sts may be
// nil or hold nil entries; ks must match qs in length.

// KNNF32FromStatsCtx is a KNNSearch of one query.
func (t *Tree) KNNF32FromStatsCtx(ctx context.Context, n *Node, q vec.Vector, k int, acc disk.Accounter, st *SearchStats) ([]Neighbor, error) {
	return first(t.KNNSearch(ctx, n, []Query{{Point: q, K: k, Acc: acc, Stats: st}}, nil, 0))
}

// KNNQuantFromStatsCtx is a KNNSearch of one query at rerankFactor.
func (t *Tree) KNNQuantFromStatsCtx(ctx context.Context, n *Node, q vec.Vector, k, rerankFactor int, acc disk.Accounter, st *SearchStats) ([]Neighbor, error) {
	return first(t.KNNSearch(ctx, n, []Query{{Point: q, K: k, Acc: acc, Stats: st}}, nil, rerankFactor))
}

// KNNBatchFromStatsCtx runs one exact float64 descent per query.
func (t *Tree) KNNBatchFromStatsCtx(ctx context.Context, n *Node, qs []vec.Vector, ks []int, accs []disk.Accounter, sts []*SearchStats) ([][]Neighbor, error) {
	b, err := queries(qs, ks, accs, sts)
	if err != nil {
		return nil, err
	}
	return t.descendAll(ctx, n, b, nil)
}

// KNNF32BatchFromStatsCtx is KNNSearch over parallel slices.
func (t *Tree) KNNF32BatchFromStatsCtx(ctx context.Context, n *Node, qs []vec.Vector, ks []int, accs []disk.Accounter, sts []*SearchStats) ([][]Neighbor, error) {
	return t.KNNQuantBatchFromStatsCtx(ctx, n, qs, ks, 0, accs, sts)
}

// KNNQuantBatchFromStatsCtx is KNNSearch over parallel slices at
// rerankFactor.
func (t *Tree) KNNQuantBatchFromStatsCtx(ctx context.Context, n *Node, qs []vec.Vector, ks []int, rerankFactor int, accs []disk.Accounter, sts []*SearchStats) ([][]Neighbor, error) {
	b, err := queries(qs, ks, accs, sts)
	if err != nil {
		return nil, err
	}
	return t.KNNSearch(ctx, n, b, nil, rerankFactor)
}

// queries zips the wrappers' parallel slices into Query values.
func queries(qs []vec.Vector, ks []int, accs []disk.Accounter, sts []*SearchStats) ([]Query, error) {
	if len(ks) != len(qs) {
		return nil, fmt.Errorf("rstar: %d queries but %d ks", len(qs), len(ks))
	}
	b := make([]Query, len(qs))
	for j, q := range qs {
		b[j] = Query{Point: q, K: ks[j]}
		if j < len(accs) {
			b[j].Acc = accs[j]
		}
		if j < len(sts) {
			b[j].Stats = sts[j]
		}
	}
	return b, nil
}
