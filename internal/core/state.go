package core

import (
	"fmt"
	"math/rand"

	"qdcbir/internal/disk"
	"qdcbir/internal/rstar"
)

// SessionStateVersion is the wire-format version ExportState writes.
const SessionStateVersion = 1

// SessionState is the wire-serializable form of a feedback session: the query
// panel (relevant images in marking order and each one's assigned subcluster,
// by node page ID), display bookkeeping, optional feature weights, and the
// accumulated cost counters. It captures everything Finalize's result depends
// on — the final round reads only (relevant order, assignments, weights) — so
// a session exported here and restored anywhere (the same process, another
// replica of the same corpus, or a router planning a distributed finalize)
// finalizes bit-identically to the original.
//
// What it deliberately does NOT capture: the display RNG's internal position
// and the shuffled display cursors. A restored session redraws candidates
// from a fresh generator, so the browsing stream after a restore is
// deterministic given (state, seed) but not a continuation of the original
// stream. Rankings are unaffected — no RNG feeds Finalize.
//
// The struct round-trips through encoding/json without loss: Go marshals
// float64 values at shortest-exact precision and integer map keys as decimal
// strings, both of which decode back to identical bits.
type SessionState struct {
	Version  int   `json:"version"`
	Relevant []int `json:"relevant,omitempty"` // marking order
	// Assign maps each relevant image to its subcluster's node page ID.
	Assign map[int]uint64 `json:"assign,omitempty"`
	// Displayed maps each currently displayed image to the frontier node that
	// displayed it (Feedback only accepts displayed images).
	Displayed     map[int]uint64 `json:"displayed,omitempty"`
	EverShown     []int          `json:"ever_shown,omitempty"` // sorted
	Weights       []float64      `json:"weights,omitempty"`
	Rounds        int            `json:"rounds"`
	Expansions    int            `json:"expansions"`
	FeedbackReads uint64         `json:"feedback_reads"`
	FinalReads    uint64         `json:"final_reads"`
	Finalized     bool           `json:"finalized,omitempty"`
}

// ExportState snapshots the session for transport. The session remains
// usable; the snapshot shares nothing with it.
func (s *Session) ExportState() *SessionState {
	st := s.panel.ExportState(func(n *rstar.Node) uint64 { return uint64(n.ID()) })
	full := s.Stats()
	st.Expansions = full.Expansions
	st.FeedbackReads = full.FeedbackReads
	st.FinalReads = full.FinalReads
	return st
}

// RestoreSession reconstructs a session from an exported state. The rng
// drives candidate displays from the restore point on; pass the same seed to
// make post-restore browsing reproducible. Node IDs are resolved against this
// engine's structure, so the state must come from a replica of the same
// build — unknown images or node IDs are rejected.
func (e *Engine) RestoreSession(st *SessionState, rng *rand.Rand) (*Session, error) {
	if st != nil {
		for _, id := range st.Relevant {
			if id < 0 || id >= e.rfs.Len() {
				return nil, fmt.Errorf("core: session state image %d outside corpus of %d", id, e.rfs.Len())
			}
		}
	}
	io := disk.NewLRUCache(1 << 16)
	p, err := RestorePanel[*rstar.Node](rfsTree{e.rfs, io}, rng, e.dim(), st, func(id uint64) (*rstar.Node, bool) {
		n := e.rfs.NodeByID(disk.PageID(id))
		return n, n != nil
	})
	if err != nil {
		return nil, err
	}
	s := e.newSession(io, p)
	s.expansions = st.Expansions
	s.baseFeedbackReads = st.FeedbackReads
	s.baseFinalReads = st.FinalReads
	return s, nil
}

func idsToInts(ids []rstar.ItemID) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

func intsToIDs(ids []int) []rstar.ItemID {
	out := make([]rstar.ItemID, len(ids))
	for i, id := range ids {
		out[i] = rstar.ItemID(id)
	}
	return out
}
