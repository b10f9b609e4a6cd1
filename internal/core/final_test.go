package core

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// fakeAreas is a Final.Search over fixed search areas: subquery i's area
// holds areas[i], already ascending by distance, and a search for want
// images returns the area's first want. Calls are logged.
type fakeAreas struct {
	areas [][]Hit
	mu    sync.Mutex
	calls []fakeCall
}

type fakeCall struct {
	sub, want int
	topUp     bool
}

func (f *fakeAreas) search(_ context.Context, i, want int, topUp bool) ([]Hit, error) {
	f.mu.Lock()
	f.calls = append(f.calls, fakeCall{i, want, topUp})
	f.mu.Unlock()
	a := f.areas[i]
	if want > len(a) {
		want = len(a)
	}
	return a[:want], nil
}

func (f *fakeAreas) topUps() []fakeCall {
	var out []fakeCall
	for _, c := range f.calls {
		if c.topUp {
			out = append(out, c)
		}
	}
	return out
}

// hits builds an area from IDs at distances 1, 2, 3, ... scaled by step.
func hits(step float64, ids ...int) []Hit {
	out := make([]Hit, len(ids))
	for i, id := range ids {
		out[i] = Hit{ID: id, Dist: step * float64(i+1)}
	}
	return out
}

func sizedSubs(sizes ...int) []Subquery {
	out := make([]Subquery, len(sizes))
	for i, n := range sizes {
		out[i] = Subquery{Key: uint64(i), Members: make([]int, n)}
	}
	return out
}

func runFinal(t *testing.T, k int, s []Subquery, f *fakeAreas) []FinalGroup {
	t.Helper()
	caps := make([]int, len(f.areas))
	for i, a := range f.areas {
		caps[i] = len(a)
	}
	var want []FinalGroup
	for _, par := range []int{1, 4} {
		f.calls = nil
		got, err := Final{K: k, Parallelism: par, Subs: s, Caps: caps, Search: f.search}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want != nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d changed the answer:\n%+v\nvs\n%+v", par, got, want)
		}
		want = got
	}
	return want
}

func claimedIDs(g FinalGroup) []int {
	var out []int
	for _, h := range g.Images {
		out = append(out, h.ID)
	}
	return out
}

// TestFinalOverlapFirstClaimWins: an image inside two search areas goes to
// the earlier subquery; the later one fills its allocation from the rest of
// its alloc+k over-request without a top-up.
func TestFinalOverlapFirstClaimWins(t *testing.T) {
	f := &fakeAreas{areas: [][]Hit{
		hits(1, 1, 2, 3, 4, 5, 6),
		hits(1.5, 1, 2, 7, 8, 9, 10),
	}}
	got := runFinal(t, 4, sizedSubs(1, 1), f)
	if len(got) != 2 || got[0].Sub != 0 || got[1].Sub != 1 {
		t.Fatalf("groups %+v", got)
	}
	if !reflect.DeepEqual(claimedIDs(got[0]), []int{1, 2}) || !reflect.DeepEqual(claimedIDs(got[1]), []int{7, 8}) {
		t.Fatalf("claims %v / %v, want [1 2] / [7 8]", claimedIDs(got[0]), claimedIDs(got[1]))
	}
	if got[1].RankScore != 4.5+6 {
		t.Fatalf("rank score %v, want the claimed distances' sum", got[1].RankScore)
	}
	for _, c := range f.calls {
		if c.topUp {
			t.Fatalf("unexpected top-up %+v", c)
		}
		if c.want != 2+4 {
			t.Fatalf("first pass requested %d, want alloc+k = 6", c.want)
		}
	}
}

// TestFinalTopUpRedistributesShortfall: a later subquery whose whole area
// was claimed earlier leaves a shortfall that the top-up pass moves to the
// subquery with images to spare; the empty group then ranks first.
func TestFinalTopUpRedistributesShortfall(t *testing.T) {
	f := &fakeAreas{areas: [][]Hit{
		hits(1, 1, 2, 3, 4, 5, 6),
		hits(1, 1, 2, 3),
	}}
	got := runFinal(t, 6, sizedSubs(1, 1), f)
	if got[0].Sub != 1 || len(got[0].Images) != 0 || got[0].Alloc != 3 {
		t.Fatalf("first group %+v, want the empty subquery 1 with alloc 3", got[0])
	}
	if got[1].Sub != 0 || !reflect.DeepEqual(claimedIDs(got[1]), []int{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("second group %+v, want subquery 0 topped up to six images", got[1])
	}
	if tu := f.topUps(); !reflect.DeepEqual(tu, []fakeCall{{sub: 0, want: 3 + 3 + 3, topUp: true}}) {
		t.Fatalf("top-ups %+v, want one for subquery 0 asking len+deficit+claimed = 9", tu)
	}
}

// TestFinalExhaustion: with fewer distinct images than k in all search
// areas together, the round returns every image once and stops.
func TestFinalExhaustion(t *testing.T) {
	f := &fakeAreas{areas: [][]Hit{
		hits(1, 1, 2, 3, 4),
		hits(1, 3, 1, 2),
	}}
	got := runFinal(t, 6, sizedSubs(2, 1), f)
	total := 0
	for _, g := range got {
		total += len(g.Images)
	}
	if total != 4 {
		t.Fatalf("%d images, want all 4 that exist", total)
	}
	if tu := f.topUps(); len(tu) != 1 || tu[0].sub != 1 {
		t.Fatalf("top-ups %+v, want one fruitless try of subquery 1", tu)
	}
}

// TestFinalMoreSubqueriesThanK: RankSubqueries keeps the k largest
// subqueries (ties by key) and each kept one gets one slot.
func TestFinalMoreSubqueriesThanK(t *testing.T) {
	all := []Subquery{
		{Key: 14, Members: []int{0}},
		{Key: 99, Members: []int{1, 2}},
		{Key: 12, Members: []int{3}},
		{Key: 10, Members: []int{4}},
		{Key: 11, Members: []int{5}},
	}
	kept := RankSubqueries(all, 3)
	var keys []uint64
	for _, s := range kept {
		keys = append(keys, s.Key)
	}
	if !reflect.DeepEqual(keys, []uint64{99, 10, 11}) {
		t.Fatalf("kept keys %v, want [99 10 11]", keys)
	}
	f := &fakeAreas{areas: [][]Hit{
		hits(1, 1, 2, 3),
		hits(1, 4, 5, 6),
		hits(1, 7, 8, 9),
	}}
	got := runFinal(t, 3, kept, f)
	for _, g := range got {
		if g.Alloc != 1 || len(g.Images) != 1 {
			t.Fatalf("group %+v, want one slot and one image", g)
		}
	}
}

// TestGroupByKey: groups form in first-appearance order and rejected
// entries join none.
func TestGroupByKey(t *testing.T) {
	keys := []uint64{7, 3, 7, 0, 3, 7}
	got := GroupByKey(len(keys), func(i int) (uint64, bool) { return keys[i], keys[i] != 0 })
	want := []Subquery{{Key: 7, Members: []int{0, 2, 5}}, {Key: 3, Members: []int{1, 4}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GroupByKey = %+v, want %+v", got, want)
	}
}
