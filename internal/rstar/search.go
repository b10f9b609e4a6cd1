package rstar

import (
	"cmp"
	"context"
	"math"
	"sync"

	"qdcbir/internal/disk"
	"qdcbir/internal/vec"
)

// ctxCheckInterval is how many priority-queue pops a search performs between
// context polls. Checking every pop would put an interface call in the
// hottest loop of the system; every 64 pops bounds cancellation latency to a
// few microseconds while keeping the fast path branch-cheap.
const ctxCheckInterval = 64

// Neighbor is one k-NN result.
type Neighbor struct {
	ID    ItemID
	Point vec.Vector
	Dist  float64 // Euclidean distance to the query
}

// SearchStats accumulates the effort counters of one or more k-NN searches:
// priority-queue pops, tree nodes expanded, and item distance computations.
// The search keeps its own local counters and folds them in once on
// successful completion, so passing stats costs nothing inside the hot loop;
// a nil *SearchStats disables accumulation entirely. A SearchStats must not
// be shared by concurrent searches.
type SearchStats struct {
	HeapPops    uint64 // best-first queue pops (nodes + item candidates)
	NodesRead   uint64 // tree nodes expanded (== accounter accesses)
	ItemsScored uint64 // exact item distances computed

	// Quantized-scan effort (SQ8 trees only; zero on exact and float32
	// searches). A fallback is one search whose candidate set failed the
	// rerank guarantee at the requested factor and had to widen (or, for a
	// NaN query, took the exact descent outright).
	CodesScanned    uint64 // SQ8 code distances computed
	Reranked        uint64 // candidates re-scored with the exact kernels
	RerankFallbacks uint64 // searches that widened past rerankFactor*k

	// Timed, when set by the caller before the search, makes the quantized
	// path record per-phase wall time below; unset it costs nothing.
	Timed    bool
	ScanNS   int64 // time in quantized sweeps
	RerankNS int64 // time in exact reranks
}

// accumulate folds one search's local counters in; nil-safe.
func (s *SearchStats) accumulate(pops, nodes, items uint64) {
	if s == nil {
		return
	}
	s.HeapPops += pops
	s.NodesRead += nodes
	s.ItemsScored += items
}

// pqEntry is either a node (to expand) or an item (a candidate result) in the
// best-first search queue, keyed by its lower-bound squared distance.
type pqEntry struct {
	distSq float64
	node   *Node // nil for item entries
	item   Item
}

// searchPQ is a binary min-heap of pqEntry ordered by distSq. It reproduces
// container/heap's sift algorithms exactly — push is append+up(n-1), pop
// swaps the root with the last element, sifts down over n-1, and removes the
// tail — with the same strict < comparator the previous heap.Interface
// implementation used. Identical swap sequences mean identical array layouts
// and therefore an identical pop order among equal-distance entries, which
// keeps retrieval output byte-for-byte stable; the rewrite only removes the
// interface{} boxing that allocated on every push.
type searchPQ []pqEntry

func (p *searchPQ) push(e pqEntry) {
	*p = append(*p, e)
	h := *p
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(h[j].distSq < h[i].distSq) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (p *searchPQ) pop() pqEntry {
	h := *p
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].distSq < h[j1].distSq {
			j = j2
		}
		if !(h[j].distSq < h[i].distSq) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	*p = h[:n]
	return e
}

// searchScratch holds the per-search working memory — the priority queue and
// the leaf-kernel output buffer — pooled across searches so a steady-state
// query allocates nothing inside the hot loop (the returned results slice is
// the one allocation per search).
type searchScratch struct {
	pq    searchPQ
	dists []float64
}

var scratchPool = sync.Pool{New: func() interface{} { return new(searchScratch) }}

// resize returns buf with length n, reallocating only when its capacity is
// short; the pooled scratch buffers of every search path grow through it.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// KNN returns the k nearest items to q in the whole tree by the exact
// float64 best-first descent, ordered by ascending distance (ties broken by
// ItemID for determinism). Every node visited is reported to acc. A nil acc
// disables accounting.
func (t *Tree) KNN(q vec.Vector, k int, acc disk.Accounter) []Neighbor {
	ns, _ := t.descend(context.Background(), t.root, q, nil, k, acc, nil)
	return ns
}

// KNNFromStatsCtx is the exact float64 best-first descent restricted to the
// subtree rooted at n, whatever scan mode the tree has. It stays for the
// benchmark's per-layer replay, which times the descent by name; everything
// else searches through KNNSearch.
func (t *Tree) KNNFromStatsCtx(ctx context.Context, n *Node, q vec.Vector, k int, acc disk.Accounter, st *SearchStats) ([]Neighbor, error) {
	return t.descend(ctx, n, q, nil, k, acc, st)
}

// descend is the exact best-first k-NN descent over the subtree rooted at n,
// under the plain Euclidean metric or, with non-nil weights, a diagonal-
// weighted one (the Query Point Movement baseline and the paper's §6
// feature-importance extension). Weighted pruning uses the weighted MINDIST,
// still a valid lower bound for non-negative weights. Every node expanded is
// reported to acc; on successful completion the queue pops, node expansions
// and item scorings are folded into st (nil skips accumulation).
func (t *Tree) descend(ctx context.Context, n *Node, q, weights vec.Vector, k int, acc disk.Accounter, st *SearchStats) ([]Neighbor, error) {
	if k <= 0 || n == nil || n.Len() == 0 {
		return nil, ctx.Err()
	}
	if acc == nil {
		acc = disk.Nop{}
	}
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	var pops, nodes, items uint64
	sc.pq = append(sc.pq[:0], pqEntry{distSq: n.rect.minDistSqW(q, weights), node: n})
	results := make([]Neighbor, 0, k)
	var ties []Neighbor
	kthSq := math.Inf(1)
	for steps := 0; len(sc.pq) > 0; steps++ {
		if steps%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		e := sc.pq.pop()
		pops++
		if len(results) == k && e.distSq > kthSq {
			break
		}
		if e.node == nil {
			// Item candidate: its distance is exact, and because the queue is
			// ordered it arrives in ascending order. Once k results are held,
			// candidates matching the kth distance exactly are kept aside so
			// the boundary tie resolves by ID, not by heap pop order.
			if len(results) < k {
				results = append(results, Neighbor{
					ID: e.item.ID, Point: e.item.Point, Dist: math.Sqrt(e.distSq),
				})
				if len(results) == k {
					kthSq = e.distSq
				}
			} else if e.distSq == kthSq {
				ties = append(ties, Neighbor{
					ID: e.item.ID, Point: e.item.Point, Dist: math.Sqrt(e.distSq),
				})
			}
			continue
		}
		acc.Access(e.node.id)
		nodes++
		if e.node.leaf {
			items += uint64(len(e.node.items))
			if t.blocksOK && e.node.block != nil {
				// One batch kernel call scores the whole leaf off its
				// contiguous block; the kernels preserve the scalar
				// accumulation order, so each distSq is bit-identical to the
				// per-item SqL2/WeightedSqL2 below.
				d := resize(sc.dists, len(e.node.items))
				sc.dists = d
				if weights == nil {
					vec.SquaredDistsTo(q, e.node.block, d)
				} else {
					vec.WeightedSquaredDistsTo(q, weights, e.node.block, d)
				}
				for i, it := range e.node.items {
					sc.pq.push(pqEntry{distSq: d[i], item: it})
				}
			} else {
				for _, it := range e.node.items {
					var d float64
					if weights == nil {
						d = vec.SqL2(q, it.Point)
					} else {
						d = vec.WeightedSqL2(q, it.Point, weights)
					}
					sc.pq.push(pqEntry{distSq: d, item: it})
				}
			}
			continue
		}
		for _, c := range e.node.children {
			sc.pq.push(pqEntry{distSq: c.rect.minDistSqW(q, weights), node: c})
		}
	}
	results = resolveBoundaryTies(results, ties, k)
	st.accumulate(pops, nodes, items)
	return results, nil
}

// resolveBoundaryTies enforces the documented (Dist, ID) selection at the
// k boundary: candidates that matched the kth distance exactly but arrived
// after the result list filled compete with the retained entries by ID
// rather than by the queue's arbitrary pop order among equals. Without this
// the SAME live set indexed under two different tree shapes (one segment
// vs. many, or before vs. after a compaction) could return different
// members of a tied pair — the segmented engine's bit-exactness contract
// forbids that. Tie-free searches take the len(ties)==0 path, identical to
// the historical behaviour.
func resolveBoundaryTies(results, ties []Neighbor, k int) []Neighbor {
	if len(ties) == 0 {
		stabilize(results)
		return results
	}
	results = append(results, ties...)
	stabilize(results)
	return results[:k]
}

// stabilize enforces a deterministic order on equal-distance neighbours:
// ascending (Dist, ID). IDs are unique within a tree, so the order is total
// and this stable insertion sort yields the same permutation the previous
// sort.SliceStable call did — without allocating a closure. The input
// arrives nearly sorted (candidates pop in ascending distance order), so the
// pass is effectively linear.
func stabilize(ns []Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && neighborLess(ns[j], ns[j-1]); j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func neighborLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// compareNeighbors is neighborLess as a slices.SortFunc comparison.
func compareNeighbors(a, b Neighbor) int {
	if a.Dist != b.Dist {
		return cmp.Compare(a.Dist, b.Dist)
	}
	return cmp.Compare(a.ID, b.ID)
}

// Search returns all items whose points fall inside r, in no particular
// order. Visited nodes are reported to acc.
func (t *Tree) Search(r Rect, acc disk.Accounter) []Item {
	if acc == nil {
		acc = disk.Nop{}
	}
	var out []Item
	var walk func(n *Node)
	walk = func(n *Node) {
		acc.Access(n.id)
		if n.leaf {
			for _, it := range n.items {
				if r.Contains(it.Point) {
					out = append(out, it)
				}
			}
			return
		}
		for _, c := range n.children {
			if r.Intersects(c.rect) {
				walk(c)
			}
		}
	}
	walk(t.root)
	return out
}

// Walk visits every node in depth-first pre-order, calling fn with each node
// and its level (leaves are level 0). Package rfs uses this to attach
// representatives.
func (t *Tree) Walk(fn func(n *Node, level int)) {
	leafLevel := t.height - 1
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fn(n, leafLevel-depth)
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
}

// LeafOf returns the leaf whose stored item has the given ID and point, or
// nil if absent. The RFS structure maps representative images back to their
// clusters with this.
func (t *Tree) LeafOf(id ItemID, p vec.Vector) *Node { return t.findLeaf(t.root, id, p) }
