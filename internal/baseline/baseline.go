// Package baseline implements the comparison retrieval techniques the paper
// surveys (§2) and evaluates against (§5): the Multiple Viewpoints system
// (French & Jin), Query Point Movement (MindReader-style), the MARS
// multipoint query, a Qcluster-style disjunctive query, and plain global
// k-NN. All baselines share one feedback protocol so the experiment harness
// can drive them interchangeably:
//
//	Search(k)            — retrieve the current top-k image IDs
//	Feedback(relevant)   — incorporate the user's relevant marks
//
// Every baseline follows the traditional model the paper critiques: each
// round runs retrieval against the whole database, in contrast to QD, whose
// feedback rounds touch only RFS representatives.
//
// The linear scans run over the corpus feature store's contiguous backing
// array (internal/store) with partial-distance early exit, preserving the
// exact candidate admission sequence of the earlier per-vector scans.
package baseline

import (
	"math"
	"sort"

	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// FeedbackRetriever is the round-based protocol shared by all baselines.
type FeedbackRetriever interface {
	// Name identifies the technique in reports.
	Name() string
	// Search returns the current top-k image IDs, most similar first.
	Search(k int) []int
	// Feedback incorporates relevant image IDs marked by the user among any
	// previously returned results.
	Feedback(relevant []int)
}

// topK selects the k smallest-distance images over the corpus by evaluating
// dist for every ID in [0, n) — the "global computation over the entire
// database" cost profile the paper attributes to traditional relevance
// feedback. vec.TopK keeps selection O(n log k) with the same bounded
// max-heap admission rule as before.
func topK(n, k int, dist func(id int) float64) []int {
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	sel := vec.NewTopK(k)
	for id := 0; id < n; id++ {
		sel.Add(dist(id), id)
	}
	return sel.AppendIDs(nil)
}

// scanTopK selects the k nearest store rows to q, weighted by w when w is
// non-nil. While the selector is filling it scores with the exact kernel;
// once full it switches to the partial-distance capped kernel with the
// selector's threshold as the limit, which preserves the exact admission
// decisions and admitted values of a full-distance scan (see
// vec.SquaredDistCapped) while skipping most of each rejected row.
func scanTopK(st *store.FeatureStore, k int, q, w vec.Vector) []int {
	n := st.Len()
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	sel := vec.NewTopK(k)
	id := 0
	for ; id < n && sel.Len() < k; id++ {
		if w == nil {
			sel.Add(vec.SqL2(st.At(id), q), id)
		} else {
			sel.Add(vec.WeightedSqL2(st.At(id), q, w), id)
		}
	}
	for ; id < n; id++ {
		if w == nil {
			sel.Add(vec.SquaredDistCapped(q, st.At(id), sel.Threshold()), id)
		} else {
			sel.Add(vec.WeightedSquaredDistCapped(q, st.At(id), w, sel.Threshold()), id)
		}
	}
	return sel.AppendIDs(nil)
}

// scanTopKQuant is the SQ8 two-phase variant of the unweighted scanTopK: a
// quantized sweep of the codes table retains rerankFactor*k candidate rows,
// the exact float kernel re-ranks them, and the rerank guarantee (see
// the file comment of rstar/quant.go for the derivation) certifies the result equals
// scanTopK's before returning it. When the guarantee fails the candidate set
// widens, degenerating to an exact rerank of every row; unclean quantizers
// and NaN queries route straight to scanTopK. Ties in exact distance at the
// k boundary are the one caveat, as on the tree path: either equal-distance
// row is a correct answer, and the selectors may differ on which they keep.
func scanTopKQuant(st *store.FeatureStore, qz *store.Quantized, k int, q vec.Vector, rerankFactor int) []int {
	n := st.Len()
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if qz == nil || !qz.Clean() || qz.Len() != n {
		return scanTopK(st, k, q, nil)
	}
	qcodes, qErr := qz.EncodeQuery(q, nil)
	if math.IsNaN(qErr) {
		return scanTopK(st, k, q, nil)
	}
	const safety = 1e-9
	m := k * rerankFactor
	if rerankFactor <= 0 || m > n || m < k {
		m = n
	}
	sel := vec.NewQuantTopK(m)
	type cand struct {
		dist float64
		id   int
	}
	var cands []cand
	var dists []int32
	for {
		sel.Reset(m)
		if vec.HasAcceleratedUint8Batch() {
			// Chunked batch sweep (see the tree-path variant in rstar): full
			// and capped distances admit the same rows, so the retained set
			// matches the per-row loop below exactly.
			const chunk = 1024
			dim := qz.Dim()
			codes := qz.Codes()
			if cap(dists) < chunk {
				dists = make([]int32, chunk)
			}
			for base := 0; base < n; base += chunk {
				end := base + chunk
				if end > n {
					end = n
				}
				d := dists[:end-base]
				vec.Uint8SquaredDistsTo(qcodes, codes[base*dim:end*dim], d)
				thr := sel.Threshold()
				for i, dv := range d {
					if dv < thr {
						sel.Add(dv, base+i)
						thr = sel.Threshold()
					}
				}
			}
		} else {
			for id := 0; id < n; id++ {
				sel.Add(vec.Uint8SquaredDistCapped(qcodes, qz.Row(id), sel.Threshold()), id)
			}
		}
		threshold := sel.Threshold()
		ids := sel.AppendIDs(nil)
		cands = cands[:0]
		for _, id := range ids {
			cands = append(cands, cand{dist: math.Sqrt(vec.SqL2(q, st.At(id))), id: id})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].id < cands[j].id
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		if m >= n {
			break
		}
		dk := cands[len(cands)-1].dist
		lower := qz.DecodedDist(threshold) - qErr - qz.DBErr()
		if dk*(1+safety) < lower*(1-safety) {
			break
		}
		if m > n/2 {
			m = n
		} else {
			m *= 2
		}
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// gatherPoints maps ids to their store row views, dropping out-of-range ids.
func gatherPoints(st *store.FeatureStore, ids []int) []vec.Vector {
	out := make([]vec.Vector, 0, len(ids))
	for _, id := range ids {
		if id >= 0 && id < st.Len() {
			out = append(out, st.At(id))
		}
	}
	return out
}
