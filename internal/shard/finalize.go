package shard

import (
	"context"
	"errors"
	"fmt"

	"qdcbir/internal/core"
	"qdcbir/internal/vec"
)

// Searcher answers subtree-restricted k-NN searches. A local Replica is one
// Searcher; a router's scatter-gather client (fan out to every shard, merge
// with MergeNeighbors) is another. The contract both satisfy: the returned
// list is the k nearest images under the node across the WHOLE corpus the
// searcher represents, ascending by (distance, ID), with distances identical
// to the single-node engine's.
type Searcher interface {
	SearchNode(ctx context.Context, nodeID uint64, q vec.Vector, weights []float64, k int) ([]Neighbor, error)
}

// RelPoint is one relevant image prepared for distributed finalize: its ID,
// its assigned subcluster (a leaf for stateless /v1/query-style calls; any
// node for a resumed feedback session), and its feature vector. Callers must
// pass points deduplicated and in marking order, and omit unassigned images —
// the same preconditions the single-node finalize sees.
type RelPoint struct {
	ID     int
	NodeID uint64
	Vec    vec.Vector
}

// ScoredImage mirrors core.ScoredImage on wire-neutral types.
type ScoredImage struct {
	ID    int
	Score float64
}

// Group mirrors core.Group: one localized subquery's results.
type Group struct {
	NodeID       uint64
	SearchNodeID uint64
	QueryIDs     []int
	Images       []ScoredImage
	RankScore    float64
}

// Expanded reports whether the §3.3 boundary test widened the search area.
func (g *Group) Expanded() bool { return g.SearchNodeID != g.NodeID }

// Result is a distributed finalize outcome: groups ordered by rank score,
// exactly as core.Result orders them.
type Result struct {
	Groups     []Group
	Expansions int
}

// IDs returns the result image IDs in group order, matching core.Result.IDs.
func (r *Result) IDs() []int {
	var out []int
	for _, g := range r.Groups {
		for _, im := range g.Images {
			out = append(out, im.ID)
		}
	}
	return out
}

// FinalizeScatter runs the final localized multipoint k-NN round (§3.3/§3.4)
// against a Searcher: the shared core.Final round with the subqueries
// planned over the topology table — grouping by assigned node, §3.3 boundary
// expansion, and search-area capacities from the full-corpus subtree sizes.
// Given a Searcher that honours its contract, the output is bit-identical to
// the single-node finalize over the same inputs: every arithmetic step either
// operates on identical float64 values in the same order or is integer
// bookkeeping.
func FinalizeScatter(ctx context.Context, topo *Topology, s Searcher, rel []RelPoint, k int, weights []float64, boundary float64, parallelism int) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("shard: invalid k=%d", k)
	}
	for _, p := range rel {
		if _, ok := topo.IdxOf(p.NodeID); !ok {
			return nil, fmt.Errorf("shard: relevant image %d assigned to unknown node %d", p.ID, p.NodeID)
		}
	}
	subs := core.RankSubqueries(core.GroupByKey(len(rel), func(i int) (uint64, bool) { return rel[i].NodeID, true }), k)
	if len(subs) == 0 {
		return nil, errors.New("shard: no relevant image lies under the current frontier")
	}

	// Resolve each subquery's search area (§3.3) and centroid.
	type prepared struct {
		searchID uint64
		ids      []int
		centroid vec.Vector
	}
	res := &Result{}
	preps := make([]prepared, len(subs))
	caps := make([]int, len(subs))
	for i, sq := range subs {
		p := &preps[i]
		qpts := make([]vec.Vector, len(sq.Members))
		for j, m := range sq.Members {
			p.ids = append(p.ids, rel[m].ID)
			qpts[j] = rel[m].Vec
		}
		idx, _ := topo.IdxOf(sq.Key)
		searchIdx := topo.ExpandForQuery(idx, qpts, boundary)
		if searchIdx != idx {
			res.Expansions++
		}
		p.searchID = topo.Nodes[searchIdx].ID
		p.centroid = vec.Centroid(qpts)
		caps[i] = topo.Nodes[searchIdx].Size
	}

	groups, err := core.Final{
		K:           k,
		Parallelism: parallelism,
		Subs:        subs,
		Caps:        caps,
		Search: func(ctx context.Context, i, want int, _ bool) ([]Neighbor, error) {
			return s.SearchNode(ctx, preps[i].searchID, preps[i].centroid, weights, want)
		},
	}.Run(ctx)
	if err != nil {
		return nil, err
	}
	for _, g := range groups {
		p := &preps[g.Sub]
		out := Group{NodeID: subs[g.Sub].Key, SearchNodeID: p.searchID, QueryIDs: p.ids, RankScore: g.RankScore}
		for _, h := range g.Images {
			out.Images = append(out.Images, ScoredImage{ID: h.ID, Score: h.Dist})
		}
		res.Groups = append(res.Groups, out)
	}
	return res, nil
}
