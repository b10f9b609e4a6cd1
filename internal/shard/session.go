package shard

import (
	"math/rand"

	"qdcbir/internal/core"
)

// ErrFinalized is returned when a shard-hosted session is used after its
// state was consumed by a distributed finalize.
var ErrFinalized = core.ErrFinalized

// Session is a feedback session hosted on a shard replica: the shared §3.2
// panel (core.Panel) over the full single-node topology table, so a shard
// session with the same seed shows the same candidates and reaches the same
// panel state as the single-node engine would. What a shard session cannot
// do alone is Finalize: the final localized k-NN needs every shard's rows,
// so the session exports its state (core.SessionState, the shared wire
// format) and a router runs FinalizeScatter over the fleet.
type Session struct {
	topo         *Topology
	panel        *core.Panel[int] // nodes are topology indices
	displayCount int
	io           *topoTree
	// Counters carried over from a restored state's earlier life.
	baseFeedbackReads uint64
	baseFinalReads    uint64
	baseExpansions    int
}

// topoTree is the core.PanelTree of a topology table. It simulates the
// feedback I/O the way core's session-lifetime page cache does: one read per
// distinct node touched.
type topoTree struct {
	topo  *Topology
	pages map[uint64]bool
	reads uint64
}

func (t *topoTree) access(n int) {
	if id := t.topo.Nodes[n].ID; !t.pages[id] {
		t.pages[id] = true
		t.reads++
	}
}

func (t *topoTree) Roots() []int { return []int{t.topo.Root()} }

func (t *topoTree) Reps(n int) []int {
	t.access(n)
	return t.topo.Nodes[n].Reps
}

func (t *topoTree) IsLeaf(n int) bool { return t.topo.Nodes[n].Leaf }

func (t *topoTree) ChildContaining(n, id int) (int, bool) {
	t.access(n)
	c := t.topo.ChildContaining(n, id)
	return c, c >= 0
}

func (t *topoTree) Narrower(a, b int) bool { return t.topo.Nodes[a].Size < t.topo.Nodes[b].Size }

func (t *topoTree) Less(a, b int) bool { return t.topo.Nodes[a].ID < t.topo.Nodes[b].ID }

// dim is the corpus dimensionality, read off the root's boundary centre.
func (t *Topology) dim() int { return len(t.Nodes[0].Center) }

// NewSession starts a session over the topology. displayCount <= 0 uses the
// archive's configured value at the server layer; here it must be positive.
func NewSession(topo *Topology, rng *rand.Rand, displayCount int) *Session {
	io := &topoTree{topo: topo, pages: make(map[uint64]bool)}
	return &Session{topo: topo, io: io, displayCount: displayCount, panel: core.NewPanel[int](io, rng, topo.dim())}
}

// Relevant returns the images marked relevant so far (shared; do not modify).
func (s *Session) Relevant() []int { return s.panel.Relevant() }

// Subqueries returns the number of active localized subqueries.
func (s *Session) Subqueries() int { return len(s.panel.Frontier()) }

// Rounds returns the feedback rounds processed.
func (s *Session) Rounds() int { return s.panel.Rounds() }

// Candidates draws up to displayCount representatives across the frontier
// (core.Panel.Candidates). Equal seeds yield the display sequence the
// single-node session shows.
func (s *Session) Candidates() []int {
	shown := s.panel.Candidates(s.displayCount)
	if len(shown) == 0 {
		return nil
	}
	ids := make([]int, len(shown))
	for i, c := range shown {
		ids[i] = c.ID
	}
	return ids
}

// Feedback processes one round of relevance feedback (core.Panel.Feedback).
func (s *Session) Feedback(marked []int) error { return s.panel.Feedback(marked) }

// Retract removes previously marked images (core.Panel.Retract).
func (s *Session) Retract(ids []int) { s.panel.Retract(ids) }

// ExportState snapshots the session in the shared wire format. The state is
// interchangeable with a single-node core.Session export: restoring it into
// either implementation reproduces the same panel, and a distributed finalize
// over it matches the single-node finalize bit for bit.
func (s *Session) ExportState() *core.SessionState {
	st := s.panel.ExportState(func(n int) uint64 { return s.topo.Nodes[n].ID })
	st.Expansions = s.baseExpansions
	st.FeedbackReads = s.baseFeedbackReads + s.io.reads
	st.FinalReads = s.baseFinalReads
	return st
}

// RestoreSession reconstructs a shard-hosted session from an exported state.
// Node IDs resolve against the topology, so the state must come from the
// same fleet (or the single-node build the fleet was sliced from).
func RestoreSession(topo *Topology, st *core.SessionState, rng *rand.Rand, displayCount int) (*Session, error) {
	s := NewSession(topo, rng, displayCount)
	p, err := core.RestorePanel[int](s.io, rng, topo.dim(), st, topo.IdxOf)
	if err != nil {
		return nil, err
	}
	s.panel = p
	s.baseFeedbackReads = st.FeedbackReads
	s.baseFinalReads = st.FinalReads
	s.baseExpansions = st.Expansions
	return s, nil
}
