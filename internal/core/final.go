package core

import (
	"context"
	"sort"

	"qdcbir/internal/par"
)

// Hit is one image a final-round search returns: its corpus-wide ID and its
// distance to the subquery's query point.
type Hit struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

// Subquery is one localized multipoint subquery of the final round: the
// relevant images that form it and the key that orders it among subqueries
// of equal size (its anchor node's ID, or seg's smallest member ID). Members
// are the caller's references to those images: IDs or positions in a list.
type Subquery struct {
	Key     uint64
	Members []int
}

// GroupByKey groups n panel entries by their subquery key in order of first
// appearance — "a localized multipoint query is computed for each subset of
// relevant images belonging to a given subcluster" (§3.3). Members are entry
// positions; entries keyOf rejects join no subquery.
func GroupByKey(n int, keyOf func(i int) (uint64, bool)) []Subquery {
	var subs []Subquery
	at := make(map[uint64]int)
	for i := 0; i < n; i++ {
		key, ok := keyOf(i)
		if !ok {
			continue
		}
		j, seen := at[key]
		if !seen {
			j = len(subs)
			at[key] = j
			subs = append(subs, Subquery{Key: key})
		}
		subs[j].Members = append(subs[j].Members, i)
	}
	return subs
}

// RankSubqueries puts subqueries in final processing order — most members
// first, ties by ascending key — and keeps only the k most relevant when
// there are more subqueries than result slots. It sorts subs in place.
func RankSubqueries(subs []Subquery, k int) []Subquery {
	sort.Slice(subs, func(i, j int) bool {
		if len(subs[i].Members) != len(subs[j].Members) {
			return len(subs[i].Members) > len(subs[j].Members)
		}
		return subs[i].Key < subs[j].Key
	})
	if len(subs) > k {
		subs = subs[:k]
	}
	return subs
}

// Final is the §3.3–§3.4 final round over ranked subqueries. Each caller
// brings only its search: core searches its R*-tree, shard scatters over a
// fleet, seg searches every segment of a snapshot.
type Final struct {
	K           int
	Parallelism int // worker pool bound for the first pass (<= 0: one per CPU)
	Subs        []Subquery
	Caps        []int // images under each subquery's search area
	// Search returns subquery i's want nearest images, ascending by
	// (distance, ID), such that a larger want returns a superset with the
	// same prefix. The first pass (topUp false) runs on the worker pool; the
	// top-up searches run serially.
	Search func(ctx context.Context, i, want int, topUp bool) ([]Hit, error)
	// Gathered, when set, runs after the first pass and before the merge.
	Gathered func()
}

// FinalGroup is one subquery's share of the merged answer.
type FinalGroup struct {
	Sub       int   // index into Final.Subs
	Alloc     int   // result slots §3.4 allocated to the subquery
	Images    []Hit // claimed images, most similar first
	RankScore float64
}

// Run allocates K across the subqueries proportionally to their sizes, runs
// their searches, merges the answers and returns the groups in §3.4
// ranking-score order (ascending summed distance, stable).
//
// Each first-pass search requests alloc+K images: enough to fill its
// allocation even if every image claimed by an earlier group (at most K in
// total) overlaps its search area. Because a larger request returns a
// prefix-consistent superset, the request size is independent of the other
// groups, so the searches can run concurrently and the answer does not
// depend on Parallelism. The merge is serial in subquery order: an image an
// earlier group claimed is skipped, and a top-up pass redistributes any
// remaining shortfall to groups whose search areas still have images.
func (f Final) Run(ctx context.Context) ([]FinalGroup, error) {
	n := len(f.Subs)
	counts := make([]int, n)
	for i, s := range f.Subs {
		counts[i] = len(s.Members)
	}
	allocs := ProportionalAlloc(f.K, counts, f.Caps)
	lists := make([][]Hit, n)
	err := par.Do(ctx, n, f.Parallelism, func(i int) error {
		hits, err := f.Search(ctx, i, allocs[i]+f.K, false)
		lists[i] = hits
		return err
	})
	if err != nil {
		return nil, err
	}
	if f.Gathered != nil {
		f.Gathered()
	}
	groups := make([]FinalGroup, n)
	seen := make(map[int]bool, f.K)
	claim := func(g *FinalGroup, h Hit) bool {
		if seen[h.ID] {
			return false
		}
		seen[h.ID] = true
		g.Images = append(g.Images, h)
		g.RankScore += h.Dist
		return true
	}
	for i, hits := range lists {
		g := &groups[i]
		g.Sub, g.Alloc = i, allocs[i]
		for _, h := range hits {
			if len(g.Images) >= g.Alloc {
				break
			}
			claim(g, h)
		}
	}
	for deficit := f.K - len(seen); deficit > 0; {
		progressed := false
		for i := range groups {
			if deficit <= 0 {
				break
			}
			g := &groups[i]
			if len(g.Images) >= f.Caps[i] {
				continue
			}
			more, err := f.Search(ctx, i, len(g.Images)+deficit+len(seen), true)
			if err != nil {
				return nil, err
			}
			for _, h := range more {
				if deficit <= 0 {
					break
				}
				if claim(g, h) {
					deficit--
					progressed = true
				}
			}
		}
		if !progressed {
			break // every search area exhausted; fewer than K images exist
		}
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].RankScore < groups[j].RankScore })
	return groups, nil
}
