package rstar

// This file wires the SQ8 compressed representation (store.Quantized, the
// int32 kernels in internal/vec) into the tree as a two-phase k-NN, run by
// sweepQuant for KNNSearch's M queries (a single query is a batch of one):
//
//  1. Scan. Because packBlocks lays leaves out in depth-first order, every
//     subtree owns one contiguous slab row range [qlo, qhi). The quantized
//     codes mirror the slab row-for-row, so a subtree-restricted search is a
//     single linear sweep of uint8 code rows (scanCodes) feeding one bounded
//     vec.QuantTopK of size rerankFactor*k per query. All M queries share the
//     first sweep; a query whose certificate fails re-runs the same sweep
//     alone with a wider selector.
//  2. Rerank. Each query's retained candidates are re-scored with the exact
//     float kernels against their slab rows and sorted ascending (Dist,
//     ItemID) — the same values and ordering the exact search produces.
//
// Exactness guarantee. Let delta be the quantizer step, qErr the query's
// measured decode error, dbErr = (delta/2)*sqrt(dim) the per-point bound, and
// T the selector's final threshold. QuantTopK admission thresholds only
// decrease, so every row NOT retained had code distance >= T, i.e. decoded
// distance >= delta*sqrt(T). By the triangle inequality its true distance to
// the query is at least
//
//	lower = delta*sqrt(T) - qErr - dbErr
//
// If the k-th reranked exact distance d_k satisfies d_k < lower (with a small
// relative safety margin absorbing float rounding), no excluded row can enter
// the top-k and the reranked result equals the exact search's bit-for-bit.
// When the check fails the search widens the candidate set (doubling
// rerankFactor*k) and ultimately reranks every row in the range — trivially
// exact — so the quantized path NEVER returns an approximate answer; failures
// only cost time and are counted as RerankFallbacks.
//
// Unclean corpora (NaN/±Inf components) have dbErr = +Inf and are routed to
// the exact search up front; a NaN query defeats the bound the same way and
// falls back likewise.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// DefaultRerankFactor is the candidate multiplier used when a caller passes
// rerankFactor <= 0: the quantized scan retains DefaultRerankFactor*k rows
// for exact reranking. See DESIGN.md §11 for the tuning argument.
const DefaultRerankFactor = 4

// quantCtxInterval is how many code rows the quantized sweep scores between
// context polls (the rows are far cheaper than heap pops, so the interval is
// correspondingly larger than ctxCheckInterval).
const quantCtxInterval = 1024

// quantSafety is the relative margin applied to the exactness comparison so
// float rounding in sqrt/delta arithmetic can never certify a candidate set
// the real-number inequality would reject.
const quantSafety = 1e-9

// setQuantRanges assigns every node's slab row range [qlo, qhi) and builds
// the slab-ordered item ID table. Leaves are walked in the same depth-first
// order packBlocks used, so row r of the slab belongs to item qids[r].
// Requires blocksOK.
func (t *Tree) setQuantRanges() {
	t.qids = make([]ItemID, 0, t.size)
	var walk func(n *Node)
	walk = func(n *Node) {
		n.qlo = len(t.qids)
		if n.leaf {
			for _, it := range n.items {
				t.qids = append(t.qids, it.ID)
			}
		} else {
			for _, c := range n.children {
				walk(c)
			}
		}
		n.qhi = len(t.qids)
	}
	walk(t.root)
}

// SetQuantizedScoring toggles the SQ8 two-phase scan. Enabling packs the leaf
// blocks if needed and trains a quantizer over the tree's own slab (the slab
// is a permutation of the indexed points, and min/max training is
// order-independent, so the parameters are identical to training over the
// points in any other order). Disabling drops the codes; KNNSearch then
// takes the tree's other paths. Enabling an empty tree is a no-op. Like all
// mutations, the toggle requires external exclusion against readers.
func (t *Tree) SetQuantizedScoring(enabled bool) error {
	if !enabled {
		t.invalidateQuantized()
		return nil
	}
	if t.quantOK || t.size == 0 {
		return nil
	}
	if !t.blocksOK {
		t.packBlocks()
	}
	qz, err := store.QuantizeBacking(t.dim, t.slab)
	if err != nil {
		return err
	}
	t.setQuantRanges()
	t.qcodes = qz.Codes()
	t.quant = qz
	t.quantOK = true
	return nil
}

// AdoptQuantized installs a quantizer whose rows are indexed by ItemID (the
// store-ordered quantizer an archive persists), permuting its codes into slab
// order. Encoding is deterministic per point, so the adopted codes are
// byte-identical to what SetQuantizedScoring would retrain; archives restore
// through this to skip the training pass. Every indexed ItemID must be a
// valid row of qz.
func (t *Tree) AdoptQuantized(qz *store.Quantized) error {
	if qz == nil {
		return fmt.Errorf("rstar: adopt nil quantizer")
	}
	if qz.Dim() != t.dim {
		return fmt.Errorf("rstar: quantizer dim %d != tree dim %d", qz.Dim(), t.dim)
	}
	if t.size == 0 {
		return nil
	}
	if !t.blocksOK {
		t.packBlocks()
	}
	t.setQuantRanges()
	codes := make([]uint8, t.size*t.dim)
	for row, id := range t.qids {
		if int(id) < 0 || int(id) >= qz.Len() {
			t.invalidateQuantized()
			return fmt.Errorf("rstar: item %d outside quantizer rows [0, %d)", id, qz.Len())
		}
		copy(codes[row*t.dim:(row+1)*t.dim], qz.Row(int(id)))
	}
	t.qcodes = codes
	t.quant = qz
	t.quantOK = true
	return nil
}

// QuantizedScoring reports whether the SQ8 scan path is active.
func (t *Tree) QuantizedScoring() bool { return t.quantOK }

// invalidateQuantized drops the quantized-scan state. Node qlo/qhi values go
// stale rather than being rewalked; quantOK guards every use of them. The
// slab-ordered ID table is shared with the float32 scan path, so it survives
// while that path still holds it.
func (t *Tree) invalidateQuantized() {
	t.quantOK = false
	t.qcodes = nil
	t.quant = nil
	t.dropRangesIfUnused()
}

// dropRangesIfUnused releases the slab-ordered ID table once neither slab-
// sweep path (quantized or float32) needs it.
func (t *Tree) dropRangesIfUnused() {
	if !t.quantOK && !t.f32OK {
		t.qids = nil
	}
}

// quantScratch is the pooled working memory of one quantized search: the
// packed encoded queries, their decode errors, the per-query selectors, the
// chunk distance block, and the rerank buffers.
type quantScratch struct {
	act    []int // indexes into qs of the queries the code sweep serves
	qcodes []uint8
	qerrs  []float64
	sels   []vec.QuantTopK
	dists  []int32
	ids    []int
	cands  []Neighbor
}

var quantScratchPool = sync.Pool{New: func() interface{} { return new(quantScratch) }}

// sweepQuant runs the two-phase quantized k-NN of every query restricted to
// the subtree rooted at n: one SQ8 sweep of the subtree's code rows selects
// rerankFactor*k candidates per query (rerankFactor <= 0 uses
// DefaultRerankFactor), the exact float kernels re-rank them, and a query's
// candidate set widens until the rerank guarantee certifies its result.
// Output is bit-identical to the exact descent. Each query's accounter is
// charged every leaf page in the range once, retries included; effort lands
// in its Stats' CodesScanned/Reranked/RerankFallbacks counters, with
// per-phase wall time in ScanNS/RerankNS when Stats.Timed is set (a timed
// query is charged the whole shared sweep). NaN queries take the exact
// descent.
func (t *Tree) sweepQuant(ctx context.Context, n *Node, qs []Query, rerankFactor int) ([][]Neighbor, error) {
	if rerankFactor <= 0 {
		rerankFactor = DefaultRerankFactor
	}
	out := make([][]Neighbor, len(qs))
	sc := quantScratchPool.Get().(*quantScratch)
	defer quantScratchPool.Put(sc)
	lo, hi := n.qlo, n.qhi
	rows, dim := hi-lo, t.dim

	// Encode every query with k > 0; a NaN decode error defeats the rerank
	// bound, so that query takes the exact descent up front.
	sc.act, sc.qerrs = sc.act[:0], sc.qerrs[:0]
	sc.qcodes = resize(sc.qcodes, len(qs)*dim)
	for j, q := range qs {
		if q.K <= 0 {
			continue
		}
		a := len(sc.act)
		_, qErr := t.quant.EncodeQuery(q.Point, sc.qcodes[a*dim:(a+1)*dim:(a+1)*dim])
		if math.IsNaN(qErr) {
			if q.Stats != nil {
				q.Stats.RerankFallbacks++
			}
			ns, err := t.descend(ctx, n, q.Point, nil, q.K, q.Acc, q.Stats)
			if err != nil {
				return nil, err
			}
			out[j] = ns
			continue
		}
		sc.act = append(sc.act, j)
		sc.qerrs = append(sc.qerrs, qErr)
	}
	ma := len(sc.act)
	if ma == 0 {
		return out, ctx.Err()
	}

	// Phase 1, shared by every encoded query.
	sc.sels = resize(sc.sels, ma)
	anyTimed := false
	for a, j := range sc.act {
		sc.sels[a].Reset(candidates(qs[j].K, rerankFactor, rows))
		anyTimed = anyTimed || (qs[j].Stats != nil && qs[j].Stats.Timed)
	}
	var t0 time.Time
	if anyTimed {
		t0 = time.Now()
	}
	if err := t.scanCodes(ctx, lo, hi, sc.qcodes[:ma*dim], sc.sels, &sc.dists); err != nil {
		return nil, err
	}
	var sharedScanNS int64
	if anyTimed {
		sharedScanNS = time.Since(t0).Nanoseconds()
	}

	// Phase 2 per query, widening until certified.
	for a, j := range sc.act {
		q := qs[j]
		k := min(q.K, rows)
		m := candidates(q.K, rerankFactor, rows)
		sel := &sc.sels[a]
		timed := q.Stats != nil && q.Stats.Timed
		var fellBack bool
		codesScanned := uint64(rows)
		var reranked uint64
		scanNS, rerankNS := sharedScanNS, int64(0)
		var results []Neighbor
		for {
			threshold := sel.Threshold()
			if timed {
				t0 = time.Now()
			}
			// SqL2 over a slab row computes the identical value the exact
			// search's batch kernel produces for that item, and (Dist, ID)
			// ordering matches stabilize, so the certified output is
			// bit-for-bit the exact search's.
			sc.ids = sel.AppendIDs(sc.ids[:0])
			cands := resize(sc.cands, len(sc.ids))
			sc.cands = cands
			for i, r := range sc.ids {
				rowF := t.slab[r*dim : r*dim+dim : r*dim+dim]
				cands[i] = Neighbor{ID: t.qids[r], Point: rowF, Dist: math.Sqrt(vec.SqL2(q.Point, rowF))}
			}
			reranked += uint64(len(cands))
			slices.SortFunc(cands, compareNeighbors)
			cands = cands[:min(len(cands), k)]
			if timed {
				rerankNS += time.Since(t0).Nanoseconds()
			}
			if m >= rows {
				// Every row in range was reranked exactly; nothing was excluded.
				results = cands
				break
			}
			dk := cands[len(cands)-1].Dist
			lower := t.quant.DecodedDist(threshold) - sc.qerrs[a] - t.quant.DBErr()
			if dk*(1+quantSafety) < lower*(1-quantSafety) {
				results = cands
				break
			}
			fellBack = true
			if m > rows/2 {
				m = rows
			} else {
				m *= 2
			}
			if timed {
				t0 = time.Now()
			}
			sel.Reset(m)
			if err := t.scanCodes(ctx, lo, hi, sc.qcodes[a*dim:(a+1)*dim], sc.sels[a:a+1], &sc.dists); err != nil {
				return nil, err
			}
			codesScanned += uint64(rows)
			if timed {
				scanNS += time.Since(t0).Nanoseconds()
			}
		}
		out[j] = slices.Clone(results)
		if q.Acc != nil || q.Stats != nil {
			nodes := chargeLeaves(n, q.Acc)
			if st := q.Stats; st != nil {
				st.NodesRead += nodes
				st.ItemsScored += reranked
				st.CodesScanned += codesScanned
				st.Reranked += reranked
				st.ScanNS += scanNS
				st.RerankNS += rerankNS
				if fellBack {
					st.RerankFallbacks++
				}
			}
		}
	}
	return out, nil
}

// candidates is the phase-1 selector size of a k-NN over rows rows:
// k*rerankFactor, clamped to the range (m < k catches multiplication
// overflow).
func candidates(k, rerankFactor, rows int) int {
	k = min(k, rows)
	m := k * rerankFactor
	if m > rows || m < k {
		m = rows
	}
	return m
}

// scanCodes is the SQ8 phase 1: one sweep of code rows [lo, hi) scoring every
// query packed in qcodes and offering each row to that query's selector in
// sels. Where the platform accelerates the uint8 batch kernel, chunks are
// scored in full by the multi-query kernel and filtered against each
// threshold; elsewhere each row takes the per-row capped kernel, whose
// partial-distance exit is the cheaper portable loop. Capped and full
// distances admit the same rows (the capped contract), so the retained sets
// and thresholds are identical on every platform.
func (t *Tree) scanCodes(ctx context.Context, lo, hi int, qcodes []uint8, sels []vec.QuantTopK, buf *[]int32) error {
	dim, m, codes := t.dim, len(sels), t.qcodes
	accel := vec.HasAcceleratedUint8Batch()
	for base := lo; base < hi; base += quantCtxInterval {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(base+quantCtxInterval, hi)
		if !accel {
			for r := base; r < end; r++ {
				row := codes[r*dim : r*dim+dim : r*dim+dim]
				for a := range sels {
					sel := &sels[a]
					sel.Add(vec.Uint8SquaredDistCapped(qcodes[a*dim:(a+1)*dim], row, sel.Threshold()), r)
				}
			}
			continue
		}
		cr := end - base
		*buf = resize(*buf, m*cr)
		vec.Uint8SquaredDistsToMulti(qcodes, m, codes[base*dim:end*dim], *buf)
		for a := range sels {
			sel := &sels[a]
			thr := sel.Threshold()
			for i, d := range (*buf)[a*cr : (a+1)*cr] {
				if d < thr {
					sel.Add(d, base+i)
					thr = sel.Threshold()
				}
			}
		}
	}
	return nil
}
