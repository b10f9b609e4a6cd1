package core

import "math"

// ProportionalAlloc distributes k result slots across subqueries
// proportionally to their relevant-image counts (§3.4): each group gets
// floor(k·count/total) slots but at least one, capped by its search-area
// capacity; leftovers are round-robined to groups that still have capacity;
// any overshoot (minimums exceeding k) is trimmed walking the group list
// from the back. counts[i] and caps[i] describe group i in final processing
// order; the caller guarantees len(counts) ≤ k and every count ≥ 1.
//
// It is the allocation step of the one final round (Final.Run) that the
// single-node finalize, the sharded scatter-gather finalize
// (shard.FinalizeScatter) and the segmented engine's query-side
// decomposition (seg) all run: integer bookkeeping, so every caller
// allocates bit-identically.
func ProportionalAlloc(k int, counts, caps []int) []int {
	n := len(counts)
	alloc := make([]int, n)
	totalRel := 0
	for _, c := range counts {
		totalRel += c
	}
	assigned := 0
	for i := range alloc {
		share := int(math.Floor(float64(k) * float64(counts[i]) / float64(totalRel)))
		if share < 1 {
			share = 1
		}
		if share > caps[i] {
			share = caps[i]
		}
		alloc[i] = share
		assigned += share
	}
	for moved := true; moved && assigned < k; {
		moved = false
		for i := range alloc {
			if assigned >= k {
				break
			}
			if alloc[i] < caps[i] {
				alloc[i]++
				assigned++
				moved = true
			}
		}
	}
	for i := 0; assigned > k; i = (i + 1) % n {
		j := n - 1 - i%n
		if alloc[j] > 1 {
			alloc[j]--
			assigned--
		}
	}
	return alloc
}
