package seg

import (
	"context"
	"fmt"
	"math/rand"

	"qdcbir/internal/core"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// ErrFinalized is returned when a session is used after Finalize.
var ErrFinalized = core.ErrFinalized

// segNode addresses one subquery anchor: a node inside one sealed
// segment's tree.
type segNode struct {
	seg  int
	node *rstar.Node
}

// Candidate is one displayed representative.
type Candidate struct {
	ID int // global image ID
}

// Session is a snapshot-pinned interactive feedback session: the shared
// §3.2 panel (core.Panel) over the snapshot's sealed segments, and every
// query run against the snapshot acquired at NewSession — concurrent
// inserts, deletes, seals, and compactions are invisible for the session's
// whole life. Call Release when done (Finalize does not release; a finalized
// session can still be inspected).
//
// The frontier is per-segment: each sealed segment contributes its own
// R*-tree descent, exactly as the monolithic session descends its single
// tree. Memtable rows are not browsable — they become visible to the
// feedback loop once sealed — but corpus-wide subqueries (Finalize) always
// see them.
type Session struct {
	snap     *Snapshot
	panel    *core.Panel[segNode]
	released bool
}

// segTree is the core.PanelTree of a snapshot's sealed segments: every
// segment's root is a root, tombstoned representatives are never displayed,
// and image IDs are global.
type segTree struct{ snap *Snapshot }

func (t segTree) Roots() []segNode {
	var roots []segNode
	for i, sv := range t.snap.segs {
		if root := sv.seg.rfs.Root(); root != nil {
			roots = append(roots, segNode{seg: i, node: root})
		}
	}
	return roots
}

func (t segTree) Reps(sn segNode) []int {
	sv := t.snap.segs[sn.seg]
	var reps []int
	for _, id := range sv.seg.rfs.Reps(sn.node, nil) {
		if !sv.tomb.Get(int(id)) {
			reps = append(reps, sv.seg.ids[int(id)])
		}
	}
	return reps
}

func (t segTree) IsLeaf(sn segNode) bool { return sn.node.IsLeaf() }

func (t segTree) ChildContaining(sn segNode, gid int) (segNode, bool) {
	seg := t.snap.segs[sn.seg].seg
	c := seg.rfs.ChildContaining(sn.node, rstar.ItemID(seg.localOf(gid)))
	return segNode{seg: sn.seg, node: c}, c != nil
}

// Narrower compares subtree sizes only within one segment: a node of
// another segment never replaces an assignment.
func (t segTree) Narrower(a, b segNode) bool {
	rfs := t.snap.segs[a.seg].seg.rfs
	return a.seg == b.seg && rfs.SubtreeSize(a.node) < rfs.SubtreeSize(b.node)
}

func (t segTree) Less(a, b segNode) bool {
	if a.seg != b.seg {
		return a.seg < b.seg
	}
	return a.node.ID() < b.node.ID()
}

// NewSession pins the current snapshot and starts a feedback session
// browsing every sealed segment's root.
func (db *DB) NewSession(rng *rand.Rand) *Session {
	snap := db.Acquire()
	return &Session{snap: snap, panel: core.NewPanel[segNode](segTree{snap}, rng, db.cfg.Dim)}
}

// Snapshot returns the session's pinned snapshot.
func (s *Session) Snapshot() *Snapshot { return s.snap }

// Relevant returns the marked panel (shared; do not modify).
func (s *Session) Relevant() []int { return s.panel.Relevant() }

// Rounds returns the number of feedback rounds processed.
func (s *Session) Rounds() int { return s.panel.Rounds() }

// Subqueries returns the current frontier size — the number of localized
// (segment, node) neighborhoods the next display draws from.
func (s *Session) Subqueries() int { return len(s.panel.Frontier()) }

// Release drops the snapshot pin. Idempotent.
func (s *Session) Release() {
	if !s.released {
		s.released = true
		s.snap.Release()
	}
}

// SetFeatureWeights installs the §6 per-dimension weighting used by
// Finalize; nil restores plain Euclidean scoring.
func (s *Session) SetFeatureWeights(w vec.Vector) error { return s.panel.SetFeatureWeights(w) }

// Candidates draws up to limit representatives across the frontier
// (core.Panel.Candidates), sampling each (segment, node) pool
// proportionally to its live representative count. Tombstoned images never
// appear.
func (s *Session) Candidates(limit int) []Candidate {
	shown := s.panel.Candidates(limit)
	if len(shown) == 0 {
		return nil
	}
	out := make([]Candidate, len(shown))
	for i, c := range shown {
		out[i] = Candidate{ID: c.ID}
	}
	return out
}

// Feedback processes one round of relevance feedback
// (core.Panel.Feedback): each marked image's subquery descends one level
// toward its leaf within its own segment's tree (§3.2), and the frontier
// becomes the distinct (segment, subcluster) set currently assigned.
func (s *Session) Feedback(marked []int) error { return s.panel.Feedback(marked) }

// SessionState is the wire-portable slice of a dynamic session: everything
// Finalize needs (the relevant panel and feature weights) plus the round
// count. Snapshot pins and per-segment frontier nodes are process-local —
// segment identity changes under sealing and compaction — so a restored
// session re-pins the restoring process's CURRENT snapshot and resumes
// browsing from the segment roots; the finalize answer is preserved exactly
// because FinalizeCtx derives everything from the panel and weights.
type SessionState struct {
	Relevant []int     `json:"relevant,omitempty"`
	Weights  []float64 `json:"weights,omitempty"`
	Rounds   int       `json:"rounds"`
}

// ExportState snapshots the session for transport. The session remains
// usable; the state shares nothing with it.
func (s *Session) ExportState() *SessionState {
	st := &SessionState{
		Relevant: append([]int(nil), s.panel.Relevant()...),
		Rounds:   s.panel.Rounds(),
	}
	if w := s.panel.Weights(); w != nil {
		st.Weights = append([]float64(nil), w...)
	}
	return st
}

// RestoreSession resumes an exported session over the current snapshot.
// Every relevant image must be live in that snapshot (an image inserted
// after the export is fine; a tombstoned one is not).
func (db *DB) RestoreSession(st *SessionState, rng *rand.Rand) (*Session, error) {
	s := db.NewSession(rng)
	for _, gid := range st.Relevant {
		if _, ok := s.snap.VectorOf(gid); !ok {
			s.Release()
			return nil, fmt.Errorf("seg: relevant image %d is not live in the current snapshot", gid)
		}
	}
	p, err := core.RestorePanel[segNode](segTree{s.snap}, rng, db.cfg.Dim, &core.SessionState{
		Version:  core.SessionStateVersion,
		Relevant: st.Relevant,
		Weights:  st.Weights,
		Rounds:   st.Rounds,
	}, nil)
	if err != nil {
		s.Release()
		return nil, err
	}
	s.panel = p
	return s, nil
}

// FinalizeCtx runs the final corpus-wide decomposition round over the
// pinned snapshot (QueryByExamplesCtx) with the session's panel and
// weights. Invalid arguments leave the session usable; otherwise the
// session stops accepting feedback, even when the search is cancelled, but
// stays pinned until Release.
func (s *Session) FinalizeCtx(ctx context.Context, k int) (*Result, error) {
	if err := s.panel.Finalize(k); err != nil {
		return nil, err
	}
	return s.snap.QueryByExamplesCtx(ctx, s.panel.Relevant(), k, s.panel.Weights())
}
