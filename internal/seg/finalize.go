package seg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qdcbir/internal/core"
	"qdcbir/internal/kmeans"
	"qdcbir/internal/vec"
)

// ScoredImage is one finalize result with its distance score.
type ScoredImage struct {
	ID    int
	Score float64
}

// Group is one localized subquery's results in the query-side
// decomposition: the example images that formed the cluster and the images
// its multipoint subquery claimed.
type Group struct {
	QueryIDs  []int
	Images    []ScoredImage
	RankScore float64
}

// Result is a finalize outcome: groups ordered ascending by rank score,
// matching the monolithic core.Result ordering.
type Result struct {
	Groups []Group
}

// IDs returns the result image IDs in group order.
func (r *Result) IDs() []int {
	var out []int
	for _, g := range r.Groups {
		for _, im := range g.Images {
			out = append(out, im.ID)
		}
	}
	return out
}

// QueryByExamplesCtx runs the final localized multipoint k-NN round
// (§3.3/§3.4) against the snapshot using QUERY-SIDE decomposition: the
// example vectors themselves are clustered (k-means, deterministic seed
// from the DB config) into ceil(sqrt(n)) groups, and each group's centroid
// subquery runs corpus-wide over the snapshot through the shared final
// round (core.Final): proportional allocation, the alloc+k over-request,
// the serial first-claim merge, the top-up loop, and the stable rank-score
// ordering.
//
// Unlike the tree-anchored monolithic finalize, this decomposition never
// references tree nodes — so its output is invariant to how the corpus is
// segmented: the same live set produces bit-identical groups whether it
// sits in one sealed segment, five segments plus a memtable, or a
// from-scratch rebuild. (Example images are identified by global ID; under
// the order-preserving ID relabeling of a rebuild the clustering sees the
// same vectors in the same order with the same seed.)
func (s *Snapshot) QueryByExamplesCtx(ctx context.Context, examples []int, k int, weights vec.Vector) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("seg: invalid k=%d", k)
	}
	if err := core.CheckWeights(weights, s.db.cfg.Dim); err != nil {
		return nil, err
	}
	// Dedup, resolve vectors, and sort ascending by global ID: the sorted
	// order is the canonical clustering input order, invariant under
	// segmentation and under the rebuild relabeling.
	seenEx := make(map[int]bool, len(examples))
	var ids []int
	for _, id := range examples {
		if seenEx[id] {
			continue
		}
		seenEx[id] = true
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, errors.New("seg: no example images")
	}
	sort.Ints(ids)
	pts := make([]vec.Vector, len(ids))
	for i, id := range ids {
		v, ok := s.VectorOf(id)
		if !ok {
			return nil, fmt.Errorf("seg: example image %d is unknown or deleted", id)
		}
		pts[i] = v
	}

	// Decompose: ceil(sqrt(n)) clusters, capped by n and by k (the
	// monolithic path likewise truncates the group list to k).
	kGroups := int(math.Ceil(math.Sqrt(float64(len(pts)))))
	if kGroups > len(pts) {
		kGroups = len(pts)
	}
	if kGroups > k {
		kGroups = k
	}
	rng := rand.New(rand.NewSource(s.db.cfg.Seed + 5))
	cl := kmeans.Cluster(pts, kGroups, kmeans.Config{}, rng)

	// One subquery per non-empty cluster (kmeans reseeds empty clusters, but
	// stay robust), members ascending, keyed by the smallest member — the
	// analogue of the monolithic node-ID tie-break.
	members := make([][]int, cl.K)
	for i, c := range cl.Assign {
		members[c] = append(members[c], ids[i])
	}
	var subs []core.Subquery
	for _, m := range members {
		if len(m) > 0 {
			subs = append(subs, core.Subquery{Key: uint64(m[0]), Members: m})
		}
	}
	subs = core.RankSubqueries(subs, k)
	centroids := make([]vec.Vector, len(subs))
	caps := make([]int, len(subs))
	for i, sq := range subs {
		qpts := make([]vec.Vector, len(sq.Members))
		for j, id := range sq.Members {
			qpts[j], _ = s.VectorOf(id)
		}
		centroids[i] = vec.Centroid(qpts)
		caps[i] = s.live // every subquery is corpus-wide
	}

	groups, err := core.Final{
		K:           k,
		Parallelism: s.db.cfg.Parallelism,
		Subs:        subs,
		Caps:        caps,
		Search: func(ctx context.Context, i, want int, _ bool) ([]Neighbor, error) {
			return s.knn(ctx, centroids[i], weights, want)
		},
	}.Run(ctx)
	if err != nil {
		return nil, err
	}
	res := &Result{Groups: make([]Group, len(groups))}
	for gi, g := range groups {
		out := Group{QueryIDs: subs[g.Sub].Members, RankScore: g.RankScore}
		for _, h := range g.Images {
			out.Images = append(out.Images, ScoredImage{ID: h.ID, Score: h.Dist})
		}
		res.Groups[gi] = out
	}
	return res, nil
}
