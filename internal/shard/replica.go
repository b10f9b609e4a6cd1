package shard

import (
	"context"
	"fmt"
	"math"
	"sort"

	"qdcbir/internal/core"
	"qdcbir/internal/vec"
)

// Neighbor is one restricted-search result: a global image ID and its
// distance. Distances are exactly the values the single-node tree search
// produces for the same (query, image) pair — float64 sqrt of the kernel's
// squared distance, computed at the store's precision — so per-shard lists
// merge into the single-node ranking without re-scoring, and feed the shared
// final round (core.Final) as they are.
type Neighbor = core.Hit

// LocalRows supplies a shard's stored feature rows to NewReplica, decoupling
// the replica from whatever loaded the archive. At must return the exact
// float64 view the single-node engine reads for the row (for float32
// corpora, the exact widening). Labels is optional per-row ground truth.
type LocalRows struct {
	Dim    int
	N      int
	F32    bool // rows originate from a float32 store
	At     func(li int) []float64
	Labels []string
}

// Replica is one shard loaded for serving: the scatter-gather machinery over
// the local subset — the full single-node topology and a slab of the local
// rows grouped by full-tree leaf, so any single-node subtree maps to a
// contiguous row range.
type Replica struct {
	meta    Meta
	topo    *Topology
	globals []int
	localOf map[int]int // global ID -> local row
	leafID  []uint64    // full-tree leaf per local row
	labels  []string    // per local row (may be nil)
	rowOf   []int       // local row -> slab row

	dim     int
	f32     bool
	slab    []float64 // local rows in (full-tree leaf pre-order, global ID) order
	slab32  []float32 // float32 mirror (f32 precision archives only)
	slabGID []int     // global ID per slab row
	ranges  [][2]int  // per topology node index: slab row range [lo,hi)
}

// NewReplica assembles a replica from a decoded archive and its local rows.
func NewReplica(a *Archive, rows LocalRows) (*Replica, error) {
	if err := a.Topo.Index(); err != nil {
		return nil, err
	}
	if len(a.Globals) != len(a.LeafID) {
		return nil, fmt.Errorf("shard: %d globals but %d leaf assignments", len(a.Globals), len(a.LeafID))
	}
	if rows.N != len(a.Globals) {
		return nil, fmt.Errorf("shard: %d rows supplied, archive lists %d", rows.N, len(a.Globals))
	}
	if rows.Dim != a.Meta.Dim {
		return nil, fmt.Errorf("shard: row dim %d, archive says %d", rows.Dim, a.Meta.Dim)
	}
	r := &Replica{
		meta:    a.Meta,
		topo:    a.Topo,
		globals: a.Globals,
		localOf: make(map[int]int, len(a.Globals)),
		leafID:  a.LeafID,
		labels:  rows.Labels,
		dim:     rows.Dim,
		f32:     rows.F32,
	}
	for li, gid := range a.Globals {
		r.localOf[gid] = li
	}

	// Group local rows by full-tree leaf. Globals is ascending, so each
	// member list is ascending by global ID — the slab's tie-break order.
	members := make(map[uint64][]int)
	for li, leaf := range a.LeafID {
		if _, ok := a.Topo.IdxOf(leaf); !ok {
			return nil, fmt.Errorf("shard: image %d assigned to unknown leaf %d", a.Globals[li], leaf)
		}
		members[leaf] = append(members[leaf], li)
	}
	// Pre-order DFS: every subtree's local rows become one contiguous slab
	// range, so a subtree-restricted search is a flat kernel sweep.
	order := make([]int, 0, len(a.Globals))
	r.ranges = make([][2]int, len(a.Topo.Nodes))
	var dfs func(i int)
	dfs = func(i int) {
		lo := len(order)
		if a.Topo.Nodes[i].Leaf {
			order = append(order, members[a.Topo.Nodes[i].ID]...)
		} else {
			for _, c := range a.Topo.Children(i) {
				dfs(c)
			}
		}
		r.ranges[i] = [2]int{lo, len(order)}
	}
	dfs(a.Topo.Root())
	if len(order) != len(a.Globals) {
		return nil, fmt.Errorf("shard: slab covers %d of %d rows (leaf table inconsistent)", len(order), len(a.Globals))
	}
	r.slab = make([]float64, len(order)*r.dim)
	r.slabGID = make([]int, len(order))
	r.rowOf = make([]int, len(order))
	for row, li := range order {
		copy(r.slab[row*r.dim:(row+1)*r.dim], rows.At(li))
		r.slabGID[row] = a.Globals[li]
		r.rowOf[li] = row
	}
	if r.f32 {
		// Narrowing the widened float64 view restores the original float32
		// bits, so the mirror matches the tree's own f32 slab row-for-row.
		r.slab32 = vec.Narrow32(r.slab, nil)
	}
	return r, nil
}

// Meta returns the shard identity.
func (r *Replica) Meta() Meta { return r.meta }

// Topo returns the full single-node topology (shared; do not modify).
func (r *Replica) Topo() *Topology { return r.topo }

// Owns reports whether the image's row is stored on this shard.
func (r *Replica) Owns(gid int) bool { _, ok := r.localOf[gid]; return ok }

// Point is one locally stored image: its full-tree leaf and feature vector,
// which routers fetch to plan finalize rounds.
type Point struct {
	ID    int       `json:"id"`
	Leaf  uint64    `json:"leaf"`
	Vec   []float64 `json:"vec"`
	Label string    `json:"label,omitempty"`
}

// PointInfo returns a locally stored image's planning record. The vector is
// the exact float64 view the single-node engine would read (for float32
// corpora, the exact widening), so router-side centroid and boundary
// arithmetic reproduces the single-node values bit-for-bit.
func (r *Replica) PointInfo(gid int) (Point, bool) {
	li, ok := r.localOf[gid]
	if !ok {
		return Point{}, false
	}
	row := r.rowOf[li]
	return Point{
		ID:    gid,
		Leaf:  r.leafID[li],
		Vec:   append([]float64(nil), r.slab[row*r.dim:(row+1)*r.dim]...),
		Label: r.localLabel(li),
	}, true
}

func (r *Replica) localLabel(li int) string {
	if li >= 0 && li < len(r.labels) {
		return r.labels[li]
	}
	return ""
}

// Labeler resolves image labels: locally stored images from the shard's
// ground truth, everything else through the topology's representative-label
// table (displays only ever show representatives).
func (r *Replica) Labeler() func(id int) string {
	return func(id int) string {
		if li, ok := r.localOf[id]; ok {
			return r.localLabel(li)
		}
		return r.topo.RepLabels[id]
	}
}

// SearchNode runs a k-NN search over the shard's rows restricted to the
// single-node subtree rooted at nodeID. The result is ascending by
// (distance, global ID) — the same total order the single-node search's
// stabilized output uses — with distances computed by the same batch kernels
// at the same precision. Unweighted, it is a SearchNodeBatch of one; a
// non-nil weights vector selects the weighted float64 sweep, exactly as the
// tree's k-NN does (there is no weighted multi-query kernel).
func (r *Replica) SearchNode(ctx context.Context, nodeID uint64, q vec.Vector, weights []float64, k int) ([]Neighbor, error) {
	if weights == nil {
		out, err := r.SearchNodeBatch(ctx, nodeID, []vec.Vector{q}, []int{k})
		if err != nil {
			return nil, err
		}
		return out[0], nil
	}
	if k <= 0 {
		return nil, fmt.Errorf("shard: invalid k=%d", k)
	}
	if len(q) != r.dim {
		return nil, fmt.Errorf("shard: query dim %d != corpus dim %d", len(q), r.dim)
	}
	if err := core.CheckWeights(weights, r.dim); err != nil {
		return nil, err
	}
	idx, ok := r.topo.IdxOf(nodeID)
	if !ok {
		return nil, fmt.Errorf("shard: unknown search node %d", nodeID)
	}
	lo, hi := r.ranges[idx][0], r.ranges[idx][1]
	if lo == hi {
		return nil, nil
	}
	sel := newTopSelect(k)
	scratch := make([]float64, searchChunk)
	for base := lo; base < hi; base += searchChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out := scratch[:min(base+searchChunk, hi)-base]
		vec.WeightedSquaredDistsTo(q, vec.Vector(weights), r.slab[base*r.dim:(base+len(out))*r.dim], out)
		for i, d := range out {
			sel.add(d, r.slabGID[base+i])
		}
	}
	return sel.neighbors(), nil
}

// searchChunk is how many slab rows a sweep scores between context polls.
const searchChunk = 1024

// SearchNodeBatch answers several k-NN searches restricted to the SAME
// single-node subtree in one pass over the shard's rows: each slab chunk is
// loaded once and scored against every query by the multi-query kernels
// (which run the single-query kernel for a batch of one), with one
// independent bounded selector per query. Per query the result is the same
// whatever the batch around it — same kernels, same admission order, same
// (distance, global ID) total order — so coalescing concurrent sweeps
// changes throughput, never answers. A query whose node holds no local rows
// gets a nil result.
func (r *Replica) SearchNodeBatch(ctx context.Context, nodeID uint64, qs []vec.Vector, ks []int) ([][]Neighbor, error) {
	if len(qs) != len(ks) {
		return nil, fmt.Errorf("shard: %d queries but %d ks", len(qs), len(ks))
	}
	sels := make([]*topSelect, len(qs))
	for j, q := range qs {
		if ks[j] <= 0 {
			return nil, fmt.Errorf("shard: invalid k=%d", ks[j])
		}
		if len(q) != r.dim {
			return nil, fmt.Errorf("shard: query dim %d != corpus dim %d", len(q), r.dim)
		}
		sels[j] = newTopSelect(ks[j])
	}
	idx, ok := r.topo.IdxOf(nodeID)
	if !ok {
		return nil, fmt.Errorf("shard: unknown search node %d", nodeID)
	}
	out := make([][]Neighbor, len(qs))
	lo, hi := r.ranges[idx][0], r.ranges[idx][1]
	m := len(qs)
	if lo == hi || m == 0 {
		return out, nil
	}
	var err error
	if r.f32 {
		qbuf := make([]float32, m*r.dim)
		for j, q := range qs {
			vec.Narrow32(q, qbuf[j*r.dim:(j+1)*r.dim:(j+1)*r.dim])
		}
		err = sweepRows(ctx, r, lo, hi, qbuf, r.slab32, sels, vec.SquaredDistsToMulti32)
	} else {
		qbuf := make([]float64, m*r.dim)
		for j, q := range qs {
			copy(qbuf[j*r.dim:(j+1)*r.dim], q)
		}
		err = sweepRows(ctx, r, lo, hi, qbuf, r.slab, sels, vec.SquaredDistsToMulti)
	}
	if err != nil {
		return nil, err
	}
	for j := range sels {
		out[j] = sels[j].neighbors()
	}
	return out, nil
}

// sweepRows is the unweighted sweep at either precision: slab rows [lo, hi)
// are scored chunk by chunk against the len(sels) queries packed in qbuf by
// the multi-query kernel, and every distance is offered to its query's
// selector. Widening float32 to float64 is exact and order-preserving, so
// one float64 selector serves both precisions; the final Dist is
// math.Sqrt(float64(d32)) — the f32 path's formula.
func sweepRows[T float32 | float64](ctx context.Context, r *Replica, lo, hi int, qbuf, slab []T, sels []*topSelect, multi func(qs []T, m int, block, out []T)) error {
	m := len(sels)
	scratch := make([]T, m*searchChunk)
	for base := lo; base < hi; base += searchChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows := min(base+searchChunk, hi) - base
		db := scratch[:m*rows]
		multi(qbuf, m, slab[base*r.dim:(base+rows)*r.dim], db)
		for j, sel := range sels {
			for i, d := range db[j*rows : (j+1)*rows] {
				sel.add(float64(d), r.slabGID[base+i])
			}
		}
	}
	return nil
}

// MergeNeighbors merges per-shard restricted-search results into the global
// top-k under the canonical (distance, ID) order. Shards hold disjoint rows,
// so no deduplication is needed; because every list is itself the k smallest
// of its shard, the merged prefix equals the single-node top-k.
func MergeNeighbors(lists [][]Neighbor, k int) []Neighbor {
	var all []Neighbor
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// cand is one bounded-selection entry: squared distance and global ID.
type cand struct {
	d   float64
	gid int
}

// topSelect keeps the k smallest candidates under the (distance, ID) order
// via a bounded max-heap (root = current worst).
type topSelect struct {
	k int
	h []cand
}

func newTopSelect(k int) *topSelect { return &topSelect{k: k} }

// worse reports a > b under the (distance, ID) order.
func worse(a, b cand) bool {
	if a.d != b.d {
		return a.d > b.d
	}
	return a.gid > b.gid
}

func (s *topSelect) add(d float64, gid int) {
	c := cand{d: d, gid: gid}
	if len(s.h) < s.k {
		s.h = append(s.h, c)
		// sift up
		i := len(s.h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worse(s.h[i], s.h[p]) {
				break
			}
			s.h[i], s.h[p] = s.h[p], s.h[i]
			i = p
		}
		return
	}
	if !worse(s.h[0], c) {
		return
	}
	s.h[0] = c
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(s.h) && worse(s.h[l], s.h[big]) {
			big = l
		}
		if r < len(s.h) && worse(s.h[r], s.h[big]) {
			big = r
		}
		if big == i {
			break
		}
		s.h[i], s.h[big] = s.h[big], s.h[i]
		i = big
	}
}

// neighbors returns the selected candidates ascending by (distance, global
// ID).
func (s *topSelect) neighbors() []Neighbor {
	cands := append([]cand(nil), s.h...)
	sort.Slice(cands, func(i, j int) bool { return worse(cands[j], cands[i]) })
	ns := make([]Neighbor, len(cands))
	for i, c := range cands {
		ns[i] = Neighbor{ID: c.gid, Dist: math.Sqrt(c.d)}
	}
	return ns
}
