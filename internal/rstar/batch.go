package rstar

// This file answers M k-NN searches over the SAME subtree in one call. The
// batch paths exist purely for throughput — every query's OWN operation
// sequence (accounter accesses, effort counters, tie resolution) is exactly
// the single-query path's, and the multi-query kernels (vec.*Multi) are
// bit-identical per query to the single-query kernels, so each returned
// result list, each SearchStats delta, and each Accounter trace is
// bit-for-bit what the corresponding single-query call would have produced.
// Callers therefore batch or not purely on load, never on semantics.
//
// Shapes per scan mode:
//
//   - Exact f64 (KNNBatchFromStatsCtx): M independent best-first descents,
//     one after another. Descents running in lockstep to share co-resident
//     leaf loads measured slower than serial: same-leaf visits are rare.
//   - f32 (KNNF32BatchFromStatsCtx): the subtree is one contiguous mirror
//     range shared by every query, so all M queries ride each chunk of the
//     single linear sweep through vec.SquaredDistsToMulti32, feeding M
//     independent selectors and candidate logs.
//   - SQ8 (KNNQuantBatchFromStatsCtx): phase 1 (the code sweep) is shared
//     like f32; phase 2 (exact rerank + certificate) and any widening
//     retries are per query, replicating quant.go's loop verbatim.

import (
	"context"
	"math"
	"sort"
	"time"

	"qdcbir/internal/disk"
	"qdcbir/internal/vec"
)

// accAt returns query j's accounter (Nop when the slice or entry is nil).
func accAt(accs []disk.Accounter, j int) disk.Accounter {
	if j < len(accs) && accs[j] != nil {
		return accs[j]
	}
	return disk.Nop{}
}

// stAt returns query j's stats sink, nil when absent.
func stAt(sts []*SearchStats, j int) *SearchStats {
	if j < len(sts) {
		return sts[j]
	}
	return nil
}

// KNNBatchFromStatsCtx answers len(qs) exact k-NN searches restricted to the
// subtree rooted at n, one independent KNNFromStatsCtx call per query:
// out[j], accs[j]'s trace, and sts[j]'s deltas are exactly that call's. accs
// and sts may be nil (or hold nil entries) to disable accounting for all or
// individual queries; ks[j] <= 0 yields a nil result for query j. It is the
// exact fallback of the f32 and SQ8 batches.
func (t *Tree) KNNBatchFromStatsCtx(ctx context.Context, n *Node, qs []vec.Vector, ks []int, accs []disk.Accounter, sts []*SearchStats) ([][]Neighbor, error) {
	out := make([][]Neighbor, len(qs))
	for j, q := range qs {
		ns, err := t.KNNFromStatsCtx(ctx, n, q, ks[j], accAt(accs, j), stAt(sts, j))
		if err != nil {
			return nil, err
		}
		out[j] = ns
	}
	return out, ctx.Err()
}

// collectLeafPages gathers the subtree's leaf page IDs in the DFS order the
// single-query slab sweeps charge them, so a batch can replay the identical
// access sequence into each query's accounter.
func collectLeafPages(n *Node, ids []disk.PageID) []disk.PageID {
	if n.leaf {
		return append(ids, n.id)
	}
	for _, c := range n.children {
		ids = collectLeafPages(c, ids)
	}
	return ids
}

// KNNF32BatchFromStatsCtx answers len(qs) float32 k-NN searches restricted to
// the subtree rooted at n with ONE linear sweep of the subtree's mirror rows:
// every chunk is scored for all queries by the multi-query kernel, feeding
// per-query selectors. out[j], accs[j], and sts[j] are bit-identical to
// KNNF32FromStatsCtx per query. Trees without float32 scoring delegate to the
// exact batch.
func (t *Tree) KNNF32BatchFromStatsCtx(ctx context.Context, n *Node, qs []vec.Vector, ks []int, accs []disk.Accounter, sts []*SearchStats) ([][]Neighbor, error) {
	out := make([][]Neighbor, len(qs))
	if n == nil || n.Len() == 0 || len(qs) == 0 {
		return out, ctx.Err()
	}
	if !t.f32OK {
		return t.KNNBatchFromStatsCtx(ctx, n, qs, ks, accs, sts)
	}
	lo, hi := n.qlo, n.qhi
	rows := hi - lo
	dim := t.dim

	// Active queries (k > 0), their narrowed vectors packed for the multi
	// kernel, and their clamped ks.
	var act []int
	for j := range qs {
		if ks[j] > 0 {
			act = append(act, j)
		}
	}
	if len(act) == 0 {
		return out, ctx.Err()
	}
	ma := len(act)
	q32 := make([]float32, ma*dim)
	kk := make([]int, ma)
	for a, j := range act {
		vec.Narrow32(qs[j], q32[a*dim:(a+1)*dim:(a+1)*dim])
		kk[a] = ks[j]
		if kk[a] > rows {
			kk[a] = rows
		}
	}

	// Each query charges every leaf page in the range exactly once, in the
	// same DFS order the single-query sweep does.
	leaves := collectLeafPages(n, nil)
	for _, j := range act {
		acc := accAt(accs, j)
		for _, id := range leaves {
			acc.Access(id)
		}
	}

	sels := make([]vec.TopK32, ma)
	cands := make([][]vec.Entry32, ma)
	for a := range sels {
		sels[a].Reset(kk[a])
	}
	dists := make([]float32, 0, ma*f32CtxInterval)
	for base := lo; base < hi; base += f32CtxInterval {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := base + f32CtxInterval
		if end > hi {
			end = hi
		}
		cr := end - base
		if cap(dists) < ma*cr {
			dists = make([]float32, ma*cr)
		}
		db := dists[:ma*cr]
		vec.SquaredDistsToMulti32(q32, ma, t.fslab[base*dim:end*dim], db)
		for a := range act {
			sel := &sels[a]
			col := db[a*cr : (a+1)*cr]
			thr := sel.Threshold()
			for i, d := range col {
				if d < thr {
					sel.Add(d, base+i)
					thr = sel.Threshold()
					cands[a] = append(cands[a], vec.Entry32{Dist: d, ID: base + i})
				} else if d == thr {
					cands[a] = append(cands[a], vec.Entry32{Dist: d, ID: base + i})
				}
			}
		}
	}
	for a, j := range act {
		final := sels[a].Threshold()
		kept := cands[a][:0]
		for _, c := range cands[a] {
			if c.Dist <= final {
				kept = append(kept, c)
			}
		}
		sort.Slice(kept, func(x, y int) bool {
			if kept[x].Dist != kept[y].Dist {
				return kept[x].Dist < kept[y].Dist
			}
			return t.qids[kept[x].ID] < t.qids[kept[y].ID]
		})
		if len(kept) > kk[a] {
			kept = kept[:kk[a]]
		}
		res := make([]Neighbor, len(kept))
		for i, e := range kept {
			rowF := t.slab[e.ID*dim : e.ID*dim+dim : e.ID*dim+dim]
			res[i] = Neighbor{ID: t.qids[e.ID], Point: rowF, Dist: math.Sqrt(float64(e.Dist))}
		}
		out[j] = res
		if st := stAt(sts, j); st != nil {
			st.NodesRead += uint64(len(leaves))
			st.ItemsScored += uint64(rows)
		}
	}
	return out, ctx.Err()
}

// KNNQuantBatchFromStatsCtx answers len(qs) two-phase quantized k-NN searches
// restricted to the subtree rooted at n. Phase 1 — the SQ8 code sweep — runs
// once for all queries through the multi-query kernel; phase 2 (exact rerank,
// exactness certificate) and any widening retries replicate quant.go's
// per-query loop, so out[j], accs[j], and sts[j] are bit-identical to
// KNNQuantFromStatsCtx per query (the quantized path never returns an
// approximate answer, batched or not). Trees without quantized scoring
// delegate to the exact batch; NaN queries fall back per query.
func (t *Tree) KNNQuantBatchFromStatsCtx(ctx context.Context, n *Node, qs []vec.Vector, ks []int, rerankFactor int, accs []disk.Accounter, sts []*SearchStats) ([][]Neighbor, error) {
	out := make([][]Neighbor, len(qs))
	if n == nil || n.Len() == 0 || len(qs) == 0 {
		return out, ctx.Err()
	}
	if !t.quantOK || !t.quant.Clean() {
		return t.KNNBatchFromStatsCtx(ctx, n, qs, ks, accs, sts)
	}
	if rerankFactor <= 0 {
		rerankFactor = DefaultRerankFactor
	}
	lo, hi := n.qlo, n.qhi
	rows := hi - lo
	dim := t.dim
	codes := t.qcodes

	// Encode every active query; a NaN decode error defeats the rerank bound,
	// so those queries delegate to the exact single-query path up front —
	// before any leaf charging — exactly as KNNQuantFromStatsCtx does.
	var act []int
	qcodesAll := make([]uint8, 0, len(qs)*dim)
	var qErrs []float64
	for j := range qs {
		if ks[j] <= 0 {
			continue
		}
		qc, qErr := t.quant.EncodeQuery(qs[j], nil)
		if math.IsNaN(qErr) {
			st := stAt(sts, j)
			if st != nil {
				st.RerankFallbacks++
			}
			ns, err := t.KNNFromStatsCtx(ctx, n, qs[j], ks[j], accAt(accs, j), st)
			if err != nil {
				return nil, err
			}
			out[j] = ns
			continue
		}
		act = append(act, j)
		qcodesAll = append(qcodesAll, qc...)
		qErrs = append(qErrs, qErr)
	}
	if len(act) == 0 {
		return out, ctx.Err()
	}
	ma := len(act)

	leaves := collectLeafPages(n, nil)
	for _, j := range act {
		acc := accAt(accs, j)
		for _, id := range leaves {
			acc.Access(id)
		}
	}

	// Per-query selector sizes: m = k*rerankFactor clamped to the range, with
	// the same overflow guard as the single-query path.
	kk := make([]int, ma)
	ms := make([]int, ma)
	sels := make([]vec.QuantTopK, ma)
	for a, j := range act {
		k := ks[j]
		if k > rows {
			k = rows
		}
		kk[a] = k
		m := k * rerankFactor
		if m > rows || m < k {
			m = rows
		}
		ms[a] = m
		sels[a].Reset(m)
	}

	// Phase 1, shared: one chunked sweep of the code rows scores every query
	// via the multi kernel. Admission per query replicates the accelerated
	// single-query branch; capped and full distances admit the same rows, so
	// the retained sets and thresholds match the single-query path whichever
	// branch it took.
	anyTimed := false
	for _, j := range act {
		if st := stAt(sts, j); st != nil && st.Timed {
			anyTimed = true
		}
	}
	var t0 time.Time
	if anyTimed {
		t0 = time.Now()
	}
	dists := make([]int32, 0, ma*quantCtxInterval)
	for base := lo; base < hi; base += quantCtxInterval {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := base + quantCtxInterval
		if end > hi {
			end = hi
		}
		cr := end - base
		if cap(dists) < ma*cr {
			dists = make([]int32, ma*cr)
		}
		db := dists[:ma*cr]
		vec.Uint8SquaredDistsToMulti(qcodesAll, ma, codes[base*dim:end*dim], db)
		for a := range act {
			sel := &sels[a]
			col := db[a*cr : (a+1)*cr]
			thr := sel.Threshold()
			for i, d := range col {
				if d < thr {
					sel.Add(d, base+i)
					thr = sel.Threshold()
				}
			}
		}
	}
	var sharedScanNS int64
	if anyTimed {
		sharedScanNS = time.Since(t0).Nanoseconds()
	}

	// Phase 2 and widening, per query: quant.go's loop with the first scan
	// already done.
	var ids []int
	var candBuf []Neighbor
	var rescan []int32
	for a, j := range act {
		q := qs[j]
		qc := qcodesAll[a*dim : (a+1)*dim]
		qErr := qErrs[a]
		k, m := kk[a], ms[a]
		sel := &sels[a]
		st := stAt(sts, j)
		timed := st != nil && st.Timed
		threshold := sel.Threshold()
		var fellBack bool
		codesScanned := uint64(rows)
		var reranked uint64
		scanNS := sharedScanNS
		var rerankNS int64
		var results []Neighbor
		for {
			if timed {
				t0 = time.Now()
			}
			ids = sel.AppendIDs(ids[:0])
			if cap(candBuf) < len(ids) {
				candBuf = make([]Neighbor, len(ids))
			}
			cands := candBuf[:len(ids)]
			for i, r := range ids {
				rowF := t.slab[r*dim : r*dim+dim : r*dim+dim]
				cands[i] = Neighbor{ID: t.qids[r], Point: rowF, Dist: math.Sqrt(vec.SqL2(q, rowF))}
			}
			reranked += uint64(len(cands))
			sort.Slice(cands, func(x, y int) bool { return neighborLess(cands[x], cands[y]) })
			if len(cands) > k {
				cands = cands[:k]
			}
			if timed {
				rerankNS += time.Since(t0).Nanoseconds()
			}
			if m >= rows {
				results = cands
				break
			}
			dk := cands[len(cands)-1].Dist
			lower := t.quant.DecodedDist(threshold) - qErr - t.quant.DBErr()
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
			// Widened rescan, exactly the single-query phase 1.
			if timed {
				t0 = time.Now()
			}
			sel.Reset(m)
			if vec.HasAcceleratedUint8Batch() {
				for base := lo; base < hi; base += quantCtxInterval {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					end := base + quantCtxInterval
					if end > hi {
						end = hi
					}
					if cap(rescan) < end-base {
						rescan = make([]int32, quantCtxInterval)
					}
					d := rescan[:end-base]
					vec.Uint8SquaredDistsTo(qc, codes[base*dim:end*dim], d)
					thr := sel.Threshold()
					for i, dd := range d {
						if dd < thr {
							sel.Add(dd, base+i)
							thr = sel.Threshold()
						}
					}
				}
			} else {
				for r := lo; r < hi; r++ {
					if (r-lo)%quantCtxInterval == 0 {
						if err := ctx.Err(); err != nil {
							return nil, err
						}
					}
					row := codes[r*dim : r*dim+dim : r*dim+dim]
					d := vec.Uint8SquaredDistCapped(qc, row, sel.Threshold())
					sel.Add(d, r)
				}
			}
			codesScanned += uint64(rows)
			threshold = sel.Threshold()
			if timed {
				scanNS += time.Since(t0).Nanoseconds()
			}
		}
		res := make([]Neighbor, len(results))
		copy(res, results)
		out[j] = res
		if st != nil {
			st.NodesRead += uint64(len(leaves))
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
	return out, ctx.Err()
}
