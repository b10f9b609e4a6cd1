package rstar

// This file wires the float32 precision mode into the tree as a slab sweep:
// SetFloat32Scoring narrows the float64 leaf slab to a float32 mirror ONCE,
// and sweepF32 answers KNNSearch's M subtree-restricted queries with one
// linear sweep of the mirror's rows: each chunk is scored for every query by
// the multi-query kernel (vec.SquaredDistsToMulti32, which runs the
// single-query kernel when M is 1) feeding one bounded vec.TopK32 per query.
// Queries are narrowed once per search, so the hot loop never converts
// per-row. A single query is a batch of one.
//
// Unlike the SQ8 two-phase path (quant.go), which reranks against the float64
// rows and certifies bit-equality with the exact search, float32 is a
// DISTINCT documented result mode: distances are computed entirely in
// float32 (then widened through one float64 sqrt for the Neighbor contract),
// so rankings can differ from the float64 path wherever float32 rounding
// collapses or reorders close distances. What the mode does guarantee is
// platform determinism: the kernels' accumulation order is canonical (see
// vec/kernel32.go), bit-identical between the portable loop and the AVX2
// implementation, and the sweep always uses the full-distance kernels —
// never a capped scalar variant — so results are identical with and without
// acceleration, across architectures, and under the noasm build tag.

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"qdcbir/internal/vec"
)

// f32CtxInterval is how many slab rows the float32 sweep scores between
// context polls (same batching role as quantCtxInterval).
const f32CtxInterval = 1024

// SetFloat32Scoring toggles the float32 sweep path. Enabling packs the leaf
// blocks if needed, builds the slab-ordered ID table shared with the
// quantized path, and narrows the slab to a float32 mirror (one rounding per
// component — exact when the indexed points came from float32 data, since
// float32→float64→float32 round-trips bit-for-bit). Disabling drops the
// mirror; KNNSearch then takes the tree's other paths. Enabling an
// empty tree is a no-op. Like all mutations, the toggle requires external
// exclusion against readers.
func (t *Tree) SetFloat32Scoring(enabled bool) {
	if !enabled {
		t.invalidateFloat32()
		return
	}
	if t.f32OK || t.size == 0 {
		return
	}
	if !t.blocksOK {
		t.packBlocks()
	}
	t.setQuantRanges()
	t.fslab = vec.Narrow32(t.slab, nil)
	t.f32OK = true
}

// Float32Scoring reports whether the float32 sweep path is active.
func (t *Tree) Float32Scoring() bool { return t.f32OK }

// invalidateFloat32 drops the float32-scan state. Node qlo/qhi values go
// stale rather than being rewalked; f32OK guards every use of them.
func (t *Tree) invalidateFloat32() {
	t.f32OK = false
	t.fslab = nil
	t.dropRangesIfUnused()
}

// f32Scratch is the pooled working memory of one float32 sweep: the packed
// narrowed queries, the query-major chunk distance block, and per query a
// selector and a candidate log (every row that was at or below the
// admission threshold when scored — a superset of the final top-k that
// includes all boundary ties).
type f32Scratch struct {
	act   []int // indexes into qs of the queries with K > 0
	q32   []float32
	dists []float32
	sels  []vec.TopK32
	cands [][]vec.Entry32
}

var f32ScratchPool = sync.Pool{New: func() interface{} { return new(f32Scratch) }}

// sweepF32 runs the float32 k-NN of every query restricted to the subtree
// rooted at n: the subtree's contiguous mirror rows [qlo, qhi) sweep once
// through the multi-query kernel in chunks, and per query a bounded selector
// keeps the k smallest (distance, row) pairs. Results are the float32 mode's
// deterministic answer (see the file comment) ordered ascending (Dist, ID);
// equal-float32-distance candidates at the k boundary resolve by ItemID,
// matching the exact search's documented tie rule — each query logs every
// row scored at or below its admission threshold, then selects the k
// smallest under (distance, ItemID), so the winners do not depend on slab
// layout (and therefore not on how the corpus was segmented). Each query's
// accounter is charged every leaf page in the range once; its scored rows
// land in Stats.ItemsScored.
func (t *Tree) sweepF32(ctx context.Context, n *Node, qs []Query) ([][]Neighbor, error) {
	out := make([][]Neighbor, len(qs))
	sc := f32ScratchPool.Get().(*f32Scratch)
	defer f32ScratchPool.Put(sc)
	sc.act = sc.act[:0]
	for j, q := range qs {
		if q.K > 0 {
			sc.act = append(sc.act, j)
		}
	}
	ma := len(sc.act)
	if ma == 0 {
		return out, ctx.Err()
	}
	lo, hi := n.qlo, n.qhi
	rows, dim := hi-lo, t.dim
	sc.q32 = resize(sc.q32, ma*dim)
	sc.sels = resize(sc.sels, ma)
	sc.cands = resize(sc.cands, ma)
	for a, j := range sc.act {
		vec.Narrow32(qs[j].Point, sc.q32[a*dim:(a+1)*dim:(a+1)*dim])
		sc.sels[a].Reset(min(qs[j].K, rows))
		sc.cands[a] = sc.cands[a][:0]
	}

	// The selector only maintains the admission threshold (the exact kth
	// smallest distance, whichever rows the heap happens to retain); the
	// candidate log keeps every row scored at or below the threshold current
	// at its time. The threshold never increases, so the log is a superset
	// of both the true top-k and every row tying the final kth distance.
	for base := lo; base < hi; base += f32CtxInterval {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := min(base+f32CtxInterval, hi)
		cr := end - base
		sc.dists = resize(sc.dists, ma*cr)
		vec.SquaredDistsToMulti32(sc.q32, ma, t.fslab[base*dim:end*dim], sc.dists)
		for a := range sc.act {
			sel := &sc.sels[a]
			thr := sel.Threshold()
			for i, d := range sc.dists[a*cr : (a+1)*cr] {
				if d < thr {
					sel.Add(d, base+i)
					thr = sel.Threshold()
					sc.cands[a] = append(sc.cands[a], vec.Entry32{Dist: d, ID: base + i})
				} else if d == thr {
					sc.cands[a] = append(sc.cands[a], vec.Entry32{Dist: d, ID: base + i})
				}
			}
		}
	}

	// Per query: keep rows at or below the final threshold, order them by
	// (distance, ItemID), and take the k smallest.
	qids := t.qids
	for a, j := range sc.act {
		final := sc.sels[a].Threshold()
		kept := sc.cands[a][:0]
		for _, c := range sc.cands[a] {
			if c.Dist <= final {
				kept = append(kept, c)
			}
		}
		slices.SortFunc(kept, func(x, y vec.Entry32) int {
			if x.Dist != y.Dist {
				return cmp.Compare(x.Dist, y.Dist)
			}
			return cmp.Compare(qids[x.ID], qids[y.ID])
		})
		kept = kept[:min(len(kept), qs[j].K)]
		res := make([]Neighbor, len(kept))
		for i, e := range kept {
			rowF := t.slab[e.ID*dim : e.ID*dim+dim : e.ID*dim+dim]
			res[i] = Neighbor{ID: qids[e.ID], Point: rowF, Dist: math.Sqrt(float64(e.Dist))}
		}
		out[j] = res
		q := qs[j]
		if q.Acc != nil || q.Stats != nil {
			nodes := chargeLeaves(n, q.Acc)
			if q.Stats != nil {
				q.Stats.NodesRead += nodes
				q.Stats.ItemsScored += uint64(rows)
			}
		}
	}
	return out, nil
}
