package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qdcbir/internal/vec"
)

// PanelTree is the node-level view of an RFS hierarchy that a Panel browses
// and descends. N identifies one node; image IDs are corpus-wide. core adapts
// an rfs.Structure, shard its topology table, and seg the sealed segments of
// a pinned snapshot.
type PanelTree[N comparable] interface {
	// Roots returns a fresh slice holding the frontier of an empty panel:
	// the whole database.
	Roots() []N
	// Reps returns the node's displayable representatives, reading the
	// node's page (§5.2.2).
	Reps(n N) []int
	IsLeaf(n N) bool
	// ChildContaining returns n's child whose subtree holds image id, reading
	// n's entry table; ok is false when n is a leaf or no child holds id.
	ChildContaining(n N, id int) (child N, ok bool)
	// Narrower reports whether a may replace b as an image's assignment: a's
	// subtree holds fewer images than b's. It is the guard that keeps a
	// re-mark from a shallower display from regressing a deeper assignment.
	Narrower(a, b N) bool
	// Less is the frontier order that makes displays reproducible.
	Less(a, b N) bool
}

// Shown is one displayed representative and the frontier node it came from.
type Shown[N comparable] struct {
	ID   int
	Node N
}

// Panel is the §3.2 half of the feedback loop: the query panel (each relevant
// image and its currently associated subcluster), the frontier of active
// localized subqueries, the proportional display draw and the optional §6
// feature weights. Sessions in core, shard and seg are adapters over one
// Panel each; they differ only in the PanelTree they hand it.
type Panel[N comparable] struct {
	tree PanelTree[N]
	rng  *rand.Rand
	dim  int

	frontier []N
	relevant []int // marking order
	relSet   map[int]bool
	// assign re-localizes each relevant image one level per round (§3.3
	// "the system records each relevant image and its associated
	// subcluster").
	assign    map[int]N
	displayed map[int]N // last display of each image: rep -> frontier node
	everShown map[int]bool
	cursors   map[N]*displayCursor
	weights   vec.Vector
	rounds    int
	finalized bool
}

// NewPanel starts an empty panel browsing the tree's roots. The rng drives
// the random displays; dim is the corpus dimensionality feature weights must
// match.
func NewPanel[N comparable](tree PanelTree[N], rng *rand.Rand, dim int) *Panel[N] {
	return &Panel[N]{
		tree:      tree,
		rng:       rng,
		dim:       dim,
		frontier:  tree.Roots(),
		relSet:    make(map[int]bool),
		assign:    make(map[int]N),
		displayed: make(map[int]N),
		everShown: make(map[int]bool),
		cursors:   make(map[N]*displayCursor),
	}
}

// Frontier returns the current subquery anchor nodes (shared; do not modify).
func (p *Panel[N]) Frontier() []N { return p.frontier }

// Relevant returns the images marked relevant so far, in marking order
// (shared; do not modify).
func (p *Panel[N]) Relevant() []int { return p.relevant }

// Weights returns the installed feature weights (nil for plain Euclidean).
func (p *Panel[N]) Weights() vec.Vector { return p.weights }

// Rounds returns the feedback rounds processed.
func (p *Panel[N]) Rounds() int { return p.rounds }

// ErrFinalized is returned when a session is used after Finalize.
var ErrFinalized = errors.New("core: session already finalized")

// CheckWeights validates §6 feature weights against the corpus
// dimensionality: one weight per dimension, none negative or NaN. Nil
// weights (plain Euclidean scoring) are valid.
func CheckWeights(w []float64, dim int) error {
	if w == nil {
		return nil
	}
	if len(w) != dim {
		return fmt.Errorf("core: weight dim %d != corpus dim %d", len(w), dim)
	}
	for i, x := range w {
		if !(x >= 0) {
			return fmt.Errorf("core: negative or NaN weight at dim %d", i)
		}
	}
	return nil
}

// SetFeatureWeights installs a per-dimension importance weighting applied by
// the final localized k-NN. Pass nil to restore plain Euclidean scoring;
// invalid weights are rejected (CheckWeights).
func (p *Panel[N]) SetFeatureWeights(w vec.Vector) error {
	if w == nil {
		p.weights = nil
		return nil
	}
	if err := CheckWeights(w, p.dim); err != nil {
		return err
	}
	p.weights = w.Clone()
	return nil
}

// Candidates draws up to limit representatives across the frontier,
// sampling each node proportionally to its representative count (so large
// clusters contribute more, mirroring the prototype's random browsing): at
// least one slot per node, the remainder to the last. Feedback only accepts
// images that have been displayed. A finalized panel displays nothing.
func (p *Panel[N]) Candidates(limit int) []Shown[N] {
	if limit <= 0 || p.finalized {
		return nil
	}
	type pool struct {
		node N
		reps []int
	}
	var pools []pool
	total := 0
	for _, n := range p.frontier {
		reps := p.tree.Reps(n)
		if len(reps) == 0 {
			continue
		}
		pools = append(pools, pool{node: n, reps: reps})
		total += len(reps)
	}
	if total == 0 {
		return nil
	}
	var out []Shown[N]
	if total <= limit {
		for _, pl := range pools {
			for _, id := range pl.reps {
				out = append(out, Shown[N]{ID: id, Node: pl.node})
			}
		}
	} else {
		remaining := limit
		for i, pl := range pools {
			share := int(math.Round(float64(limit) * float64(len(pl.reps)) / float64(total)))
			if share < 1 {
				share = 1
			}
			if i == len(pools)-1 {
				share = remaining
			}
			if share > len(pl.reps) {
				share = len(pl.reps)
			}
			if share > remaining {
				share = remaining
			}
			for _, id := range p.take(pl.node, pl.reps, share) {
				out = append(out, Shown[N]{ID: id, Node: pl.node})
			}
			remaining -= share
			if remaining <= 0 {
				break
			}
		}
	}
	for _, c := range out {
		p.displayed[c.ID] = c.Node
		p.everShown[c.ID] = true
	}
	return out
}

// displayCursor pages through one node's representatives in a shuffled order
// without repetition, reshuffling once exhausted — the effective behaviour of
// a user repeatedly pressing the GUI's "Random" button until they have seen
// the candidate pool (§4). With-replacement sampling would leave rarely-drawn
// representatives unseen no matter how long the user browses.
type displayCursor struct {
	order []int
	pos   int
}

// take returns the next n representatives under the node's cursor.
func (p *Panel[N]) take(node N, reps []int, n int) []int {
	shuffle := func(order []int) {
		p.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	cur, ok := p.cursors[node]
	if !ok || len(cur.order) != len(reps) {
		cur = &displayCursor{order: append([]int(nil), reps...)}
		shuffle(cur.order)
		p.cursors[node] = cur
	}
	out := make([]int, 0, n)
	for len(out) < n {
		if cur.pos >= len(cur.order) {
			shuffle(cur.order)
			cur.pos = 0
		}
		out = append(out, cur.order[cur.pos])
		cur.pos++
		if len(out) >= len(cur.order) {
			break // pool smaller than the request: one full pass is enough
		}
	}
	return out
}

// Feedback processes one round of relevance feedback; the marked images must
// have been displayed.
//
// The panel mirrors the prototype's ImageGrouper protocol (§4): relevant
// images persist, and every round each one's subquery descends one level
// toward its leaf (§3.2). New marks join at the child of the cluster that
// displayed them. The frontier is the set of distinct subclusters assigned
// to relevant images, so the query splits exactly when relevant images
// diverge into different clusters and discards branches in which the user
// never marked anything.
func (p *Panel[N]) Feedback(marked []int) error {
	if p.finalized {
		return ErrFinalized
	}
	p.rounds++
	for _, id := range marked {
		node, ok := p.displayed[id]
		if !ok {
			return fmt.Errorf("core: image %d was not displayed", id)
		}
		if !p.relSet[id] {
			p.relSet[id] = true
			p.relevant = append(p.relevant, id)
		}
		child, ok := p.tree.ChildContaining(node, id)
		if !ok {
			child = node // displaying node is a leaf: maximally localized
		}
		if cur, ok := p.assign[id]; !ok || p.tree.Narrower(child, cur) {
			p.assign[id] = child
		}
	}
	for _, id := range p.relevant {
		n, ok := p.assign[id]
		if !ok || p.tree.IsLeaf(n) {
			continue
		}
		if child, ok := p.tree.ChildContaining(n, id); ok {
			p.assign[id] = child
		}
	}
	p.rebuildFrontier()
	return nil
}

// Retract removes previously marked images from the panel (the ImageGrouper
// interface lets users drag images back out). Subqueries kept alive only by
// retracted marks are discarded; retracting everything returns the panel to
// browsing the roots.
func (p *Panel[N]) Retract(ids []int) {
	if p.finalized {
		return
	}
	drop := make(map[int]bool, len(ids))
	for _, id := range ids {
		if p.relSet[id] {
			drop[id] = true
			delete(p.relSet, id)
			delete(p.assign, id)
		}
	}
	if len(drop) == 0 {
		return
	}
	kept := p.relevant[:0]
	for _, id := range p.relevant {
		if !drop[id] {
			kept = append(kept, id)
		}
	}
	p.relevant = kept
	p.rebuildFrontier()
}

// rebuildFrontier derives the active subqueries from the panel assignments.
func (p *Panel[N]) rebuildFrontier() {
	if len(p.assign) == 0 {
		p.frontier = p.tree.Roots()
		return
	}
	next := make(map[N]bool, len(p.assign))
	for _, n := range p.assign {
		next[n] = true
	}
	p.frontier = p.frontier[:0]
	for n := range next {
		p.frontier = append(p.frontier, n)
	}
	sort.Slice(p.frontier, func(i, j int) bool { return p.tree.Less(p.frontier[i], p.frontier[j]) })
}

// Finalize validates a final round's arguments and then consumes the panel:
// it accepts no feedback afterwards. Invalid arguments leave the panel
// usable, so a caller can retry with a valid k.
func (p *Panel[N]) Finalize(k int) error {
	if p.finalized {
		return ErrFinalized
	}
	if k <= 0 {
		return fmt.Errorf("core: invalid k=%d", k)
	}
	if len(p.relevant) == 0 {
		return errors.New("core: no relevant feedback given")
	}
	p.finalized = true
	return nil
}

// ExportState snapshots the panel in the SessionState wire format, naming
// nodes by nodeID. Cost counters are the caller's to fill in.
func (p *Panel[N]) ExportState(nodeID func(N) uint64) *SessionState {
	st := &SessionState{
		Version:   SessionStateVersion,
		Relevant:  append([]int(nil), p.relevant...),
		Rounds:    p.rounds,
		Finalized: p.finalized,
	}
	if len(p.assign) > 0 {
		st.Assign = make(map[int]uint64, len(p.assign))
		for id, n := range p.assign {
			st.Assign[id] = nodeID(n)
		}
	}
	if len(p.displayed) > 0 {
		st.Displayed = make(map[int]uint64, len(p.displayed))
		for id, n := range p.displayed {
			st.Displayed[id] = nodeID(n)
		}
	}
	if len(p.everShown) > 0 {
		st.EverShown = make([]int, 0, len(p.everShown))
		for id := range p.everShown {
			st.EverShown = append(st.EverShown, id)
		}
		sort.Ints(st.EverShown)
	}
	if p.weights != nil {
		st.Weights = append([]float64(nil), p.weights...)
	}
	return st
}

// RestorePanel rebuilds a panel from an exported state, resolving node IDs
// with nodeByID; unknown nodes, repeated marks, assignments of unmarked
// images and invalid weights are rejected. The rng drives displays from the
// restore point on.
func RestorePanel[N comparable](tree PanelTree[N], rng *rand.Rand, dim int, st *SessionState, nodeByID func(uint64) (N, bool)) (*Panel[N], error) {
	if st == nil {
		return nil, errors.New("core: nil session state")
	}
	if st.Version != SessionStateVersion {
		return nil, fmt.Errorf("core: session state version %d unsupported (want %d)", st.Version, SessionStateVersion)
	}
	p := NewPanel(tree, rng, dim)
	p.rounds = st.Rounds
	p.finalized = st.Finalized
	for _, id := range st.Relevant {
		if p.relSet[id] {
			return nil, fmt.Errorf("core: session state repeats relevant image %d", id)
		}
		p.relSet[id] = true
		p.relevant = append(p.relevant, id)
	}
	for id, nodeID := range st.Assign {
		if !p.relSet[id] {
			return nil, fmt.Errorf("core: session state assigns unmarked image %d", id)
		}
		n, ok := nodeByID(nodeID)
		if !ok {
			return nil, fmt.Errorf("core: session state image %d assigned to unknown node %d", id, nodeID)
		}
		p.assign[id] = n
	}
	for id, nodeID := range st.Displayed {
		n, ok := nodeByID(nodeID)
		if !ok {
			return nil, fmt.Errorf("core: session state displays image %d from unknown node %d", id, nodeID)
		}
		p.displayed[id] = n
	}
	for _, id := range st.EverShown {
		p.everShown[id] = true
	}
	if st.Weights != nil {
		if err := p.SetFeatureWeights(st.Weights); err != nil {
			return nil, err
		}
	}
	p.rebuildFrontier()
	return p, nil
}
