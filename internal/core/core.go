// Package core implements the paper's primary contribution: the Query
// Decomposition (QD) model for relevance feedback in content-based image
// retrieval (§3).
//
// A Session tracks one user query. It starts with the representatives of the
// RFS root; every feedback round maps the images the user marked relevant to
// the child clusters they came from and splits the query into independent
// localized subqueries — a multi-path descent of the RFS hierarchy. No k-NN
// computation happens until Finalize, which runs one localized multipoint
// k-NN per final subcluster (expanding to the parent node when query images
// sit near the cluster boundary, §3.3), then merges the local results with
// allocation proportional to each subcluster's relevant count and ranks the
// groups by their summed similarity scores (§3.4).
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sort"
	"time"

	"qdcbir/internal/disk"
	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// Config holds the engine parameters.
type Config struct {
	// BoundaryThreshold is the §3.3 ratio above which a localized query
	// expands to the parent node. The paper sets 0.4 for its 15,000-image
	// corpus.
	BoundaryThreshold float64
	// DisplayCount is how many candidate representatives one display round
	// shows (the prototype GUI shows 21, §4).
	DisplayCount int
	// Parallelism bounds the worker pool that runs the final localized
	// subqueries (<= 0 uses one worker per CPU). Results and simulated I/O
	// counts are identical at every setting: each subquery records its node
	// accesses privately and the traces are replayed into the session cache
	// in deterministic group order.
	Parallelism int
	// Observer receives telemetry (metrics and per-query trace spans) from
	// every session and query this engine runs. Nil — the default — disables
	// instrumentation entirely: the hot paths pay one nil-check and perform
	// no clock reads, no atomics, and no allocation. Results are identical
	// either way.
	Observer *obs.Observer
	// Quantized routes unweighted localized k-NN searches through the SQ8
	// two-phase scan (quantized sweep + exact rerank; see
	// rstar.KNNQuantFromStatsCtx). Results are bit-identical to the exact
	// path — the rerank guarantee falls back rather than approximate.
	// NewEngine trains the tree's quantizer if none is installed yet.
	// Weighted searches (§6 feature importance) always use the exact path.
	Quantized bool
	// RerankFactor is the quantized scan's candidate multiplier: the sweep
	// retains RerankFactor*k rows for exact reranking. <= 0 uses
	// rstar.DefaultRerankFactor.
	RerankFactor int
	// Float32 routes unweighted localized k-NN searches through the float32
	// sweep (rstar.KNNF32FromStatsCtx): half-width rows, double the SIMD
	// lanes. Unlike Quantized this is a distinct PRECISION, not an
	// optimization of the float64 path — distances are computed in float32
	// and may rank close neighbours differently — so it takes precedence
	// over Quantized (withDefaults clears that flag) rather than compose
	// with it. Results are deterministic across platforms and build tags
	// (the float32 kernels share one canonical accumulation order).
	// Weighted searches (§6 feature importance) always use the exact
	// float64 path.
	Float32 bool
}

func (c Config) withDefaults() Config {
	if c.BoundaryThreshold <= 0 {
		c.BoundaryThreshold = 0.4
	}
	if c.DisplayCount <= 0 {
		c.DisplayCount = 21
	}
	if c.Float32 {
		c.Quantized = false // Float32 selects a precision; SQ8 serves the f64 path
	}
	return c
}

// Engine is the query processor over one RFS structure.
type Engine struct {
	rfs *rfs.Structure
	cfg Config
}

// NewEngine returns a QD engine over the structure. When cfg.Quantized is
// set and the structure's tree has no quantizer installed yet (an archive
// restore installs one via AdoptQuantized), the tree trains one here; like
// construction itself, this requires exclusion against concurrent searches.
func NewEngine(s *rfs.Structure, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.Float32 && !s.Tree().Float32Scoring() {
		s.Tree().SetFloat32Scoring(true)
	}
	if cfg.Quantized && !s.Tree().QuantizedScoring() {
		if err := s.Tree().SetQuantizedScoring(true); err != nil {
			// Quantization is a pure optimization: an untrainable corpus
			// (e.g. dimensionality past the SQ8 limit) reverts to exact
			// scoring rather than failing engine construction.
			cfg.Quantized = false
		}
	}
	return &Engine{rfs: s, cfg: cfg}
}

// RFS returns the engine's structure.
func (e *Engine) RFS() *rfs.Structure { return e.rfs }

// Config returns the engine configuration (with defaults applied).
func (e *Engine) Config() Config { return e.cfg }

// Candidate is one displayable representative image together with the
// frontier node it represents.
type Candidate struct {
	ID   rstar.ItemID
	Node *rstar.Node
}

// Stats accumulates the session's simulated I/O, split the way the paper's
// scalability argument splits work: feedback processing (runs against the
// small representative set, client-side) versus the final localized k-NN
// (server-side).
type Stats struct {
	FeedbackReads uint64 // RFS node reads during display/descent
	FinalReads    uint64 // tree node reads during localized k-NN
	Expansions    int    // boundary expansions performed at Finalize
	Rounds        int    // feedback rounds processed
}

// Session is one user's relevance-feedback interaction: a Panel over the
// engine's RFS structure, with the session-lifetime page caches and
// telemetry.
type Session struct {
	eng   *Engine
	panel *Panel[*rstar.Node]

	// Session-lifetime page caches: §5.2.2's cost model counts one read per
	// distinct node — representatives marked from the same cluster share the
	// node access, and a node stays buffered for the rest of the session.
	feedbackIO *disk.LRUCache
	finalIO    *disk.LRUCache
	expansions int
	// baseFeedbackReads/baseFinalReads carry the read counters of a restored
	// session's earlier life (RestoreSession); the live caches count only
	// post-restore reads.
	baseFeedbackReads uint64
	baseFinalReads    uint64

	// trace is the session's observability span (nil when the engine has no
	// Observer). lastFbReads/lastFbAccesses checkpoint the feedback cache
	// counters so each round's span reports deltas, attributing the browsing
	// I/O between two rounds to the later round.
	trace          *obs.Trace
	lastFbReads    uint64
	lastFbAccesses uint64
}

// rfsTree is the PanelTree of one RFS structure, charging node reads to the
// session's feedback cache.
type rfsTree struct {
	rfs *rfs.Structure
	io  disk.Accounter
}

func (t rfsTree) Roots() []*rstar.Node { return []*rstar.Node{t.rfs.Root()} }

func (t rfsTree) Reps(n *rstar.Node) []int { return idsToInts(t.rfs.Reps(n, t.io)) }

func (t rfsTree) IsLeaf(n *rstar.Node) bool { return n.IsLeaf() }

func (t rfsTree) ChildContaining(n *rstar.Node, id int) (*rstar.Node, bool) {
	t.io.Access(n.ID())
	c := t.rfs.ChildContaining(n, rstar.ItemID(id))
	return c, c != nil
}

func (t rfsTree) Narrower(a, b *rstar.Node) bool { return t.rfs.SubtreeSize(a) < t.rfs.SubtreeSize(b) }

func (t rfsTree) Less(a, b *rstar.Node) bool { return a.ID() < b.ID() }

func (e *Engine) dim() int { return len(e.rfs.Point(0)) }

// newSession wraps a panel whose tree charges feedbackIO with the
// session's final-round cache and telemetry.
func (e *Engine) newSession(feedbackIO *disk.LRUCache, p *Panel[*rstar.Node]) *Session {
	s := &Session{
		eng:        e,
		panel:      p,
		feedbackIO: feedbackIO,
		finalIO:    disk.NewLRUCache(1 << 16),
	}
	if o := e.cfg.Observer; o != nil {
		o.SessionStarted()
		s.trace = o.StartTrace("session")
	}
	return s
}

// NewSession starts a query session; the rng drives the random candidate
// displays.
func (e *Engine) NewSession(rng *rand.Rand) *Session {
	io := disk.NewLRUCache(1 << 16)
	return e.newSession(io, NewPanel[*rstar.Node](rfsTree{e.rfs, io}, rng, e.dim()))
}

// Trace returns the session's trace span (nil when the engine has no
// observer). Callers may attach a correlation label via Trace.SetLabel.
func (s *Session) Trace() *obs.Trace { return s.trace }

// Frontier returns the current subquery anchor nodes (shared slice; do not
// modify).
func (s *Session) Frontier() []*rstar.Node { return s.panel.Frontier() }

// Relevant returns all images marked relevant so far, in marking order.
func (s *Session) Relevant() []rstar.ItemID { return intsToIDs(s.panel.Relevant()) }

// Stats returns the session's accumulated cost statistics.
func (s *Session) Stats() Stats {
	return Stats{
		FeedbackReads: s.baseFeedbackReads + s.feedbackIO.Reads(),
		FinalReads:    s.baseFinalReads + s.finalIO.Reads(),
		Expansions:    s.expansions,
		Rounds:        s.panel.Rounds(),
	}
}

// Candidates draws up to DisplayCount representatives across the frontier
// (Panel.Candidates). The returned slice records which frontier node each
// candidate represents; Feedback only accepts images that have been
// displayed.
func (s *Session) Candidates() []Candidate {
	shown := s.panel.Candidates(s.eng.cfg.DisplayCount)
	if len(shown) == 0 {
		return nil
	}
	out := make([]Candidate, len(shown))
	for i, c := range shown {
		out[i] = Candidate{ID: rstar.ItemID(c.ID), Node: c.Node}
	}
	s.trace.AddDisplayed(len(out))
	return out
}

// Feedback processes one round of user relevance feedback (Panel.Feedback):
// the marked images must have appeared in a previous Candidates call.
// Determining the child a mark descends to reads the node's entry table — one
// page access (§5.2.2).
func (s *Session) Feedback(marked []rstar.ItemID) error {
	o := s.eng.cfg.Observer
	var t0 time.Time
	var offsetNS int64
	if o != nil {
		offsetNS = s.trace.SinceStart()
		t0 = time.Now()
	}
	if err := s.panel.Feedback(idsToInts(marked)); err != nil {
		return err
	}
	if o != nil {
		reads, accesses := s.feedbackIO.Reads(), s.feedbackIO.Accesses()
		o.RoundDone(s.trace, obs.RoundSpan{
			Round:        s.panel.Rounds(),
			OffsetNS:     offsetNS,
			Marked:       len(marked),
			Relevant:     len(s.panel.Relevant()),
			Subqueries:   len(s.panel.Frontier()),
			NodesVisited: accesses - s.lastFbAccesses,
			PageReads:    reads - s.lastFbReads,
			DurationNS:   time.Since(t0).Nanoseconds(),
		})
		s.lastFbReads, s.lastFbAccesses = reads, accesses
	}
	return nil
}

// SetFeatureWeights installs a per-dimension importance weighting (e.g.
// emphasizing the colour family) applied by the final localized k-NN — the
// user-defined feature-importance extension of §6. Pass nil to restore plain
// Euclidean scoring. Weights must be non-negative and match the corpus
// dimensionality; invalid weights are rejected.
func (s *Session) SetFeatureWeights(w vec.Vector) error { return s.panel.SetFeatureWeights(w) }

// Retract removes previously marked images from the query panel
// (Panel.Retract).
func (s *Session) Retract(ids []rstar.ItemID) { s.panel.Retract(idsToInts(ids)) }

// ScoredImage is one result image with its similarity score (Euclidean
// distance to the local query centroid; smaller is more similar).
type ScoredImage struct {
	ID    rstar.ItemID
	Score float64
}

// Group is the result of one localized subquery.
type Group struct {
	// Node is the subcluster the subquery was anchored at (before boundary
	// expansion).
	Node *rstar.Node
	// SearchNode is the node actually searched after §3.3 expansion.
	SearchNode *rstar.Node
	// QueryIDs are the relevant images that formed the local multipoint
	// query.
	QueryIDs []rstar.ItemID
	// Images are the group's results, most similar first.
	Images []ScoredImage
	// RankScore is the sum of the group's similarity scores (§3.4).
	RankScore float64
}

// Result is a finalized query: per-subcluster groups ordered by RankScore.
type Result struct {
	Groups []Group
}

// Flat returns all result images in a single list ranked by individual
// similarity score — the presentation alternative §3.4 mentions.
func (r *Result) Flat() []ScoredImage {
	var out []ScoredImage
	for _, g := range r.Groups {
		out = append(out, g.Images...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// IDs returns the result image IDs in group order (groups by rank, images by
// score within each group) — the paper's grouped presentation flattened.
func (r *Result) IDs() []int {
	var out []int
	for _, g := range r.Groups {
		for _, im := range g.Images {
			out = append(out, int(im.ID))
		}
	}
	return out
}

// Finalize runs the final localized multipoint k-NN subqueries (§3.3) and
// merges their results (§3.4), returning k images in total. The session can
// still report Stats afterwards but accepts no further feedback.
func (s *Session) Finalize(k int) (*Result, error) {
	return s.FinalizeCtx(context.Background(), k)
}

// FinalizeCtx is Finalize with cancellation. Invalid arguments leave the
// session usable. A cancelled context aborts the localized k-NN subqueries
// mid-flight; the session still counts as finalized (feedback state has been
// consumed) but no partial result is returned.
func (s *Session) FinalizeCtx(ctx context.Context, k int) (*Result, error) {
	if err := s.panel.Finalize(k); err != nil {
		return nil, err
	}
	if o := s.eng.cfg.Observer; o != nil {
		// Browsing I/O after the last feedback round has no round span to carry
		// it; flush it into the feedback-reads counter so the observer's totals
		// match the session's Stats.
		reads := s.feedbackIO.Reads()
		o.AddFeedbackReads(reads - s.lastFbReads)
		s.lastFbReads = reads
	}
	return finalizeGroups(ctx, s.eng, s.panel.relevant, s.panel.assign, k, s.panel.weights, s.finalIO, &s.expansions, s.trace)
}

// QueryByExamples runs the final localized query processing directly from a
// set of example (relevant) images, grouping them by their leaf subclusters —
// the server half of the paper's client/server split (§4): the client runs
// relevance feedback against its representative payload and submits only the
// final query images here. acc may be nil. The returned stats cover only this
// call.
func (e *Engine) QueryByExamples(relevant []rstar.ItemID, k int, weights vec.Vector, acc disk.Accounter) (*Result, Stats, error) {
	return e.QueryByExamplesCtx(context.Background(), relevant, k, weights, acc)
}

// QueryByExamplesCtx is QueryByExamples with cancellation: the localized
// subqueries poll ctx and abort early when it is done.
func (e *Engine) QueryByExamplesCtx(ctx context.Context, relevant []rstar.ItemID, k int, weights vec.Vector, acc disk.Accounter) (*Result, Stats, error) {
	var stats Stats
	if k <= 0 {
		return nil, stats, fmt.Errorf("core: invalid k=%d", k)
	}
	if len(relevant) == 0 {
		return nil, stats, errors.New("core: no example images given")
	}
	if err := CheckWeights(weights, e.dim()); err != nil {
		return nil, stats, err
	}
	assign := make(map[int]*rstar.Node, len(relevant))
	var ids []int
	for _, id := range relevant {
		if assign[int(id)] != nil {
			continue
		}
		leaf := e.rfs.LeafOf(id)
		if leaf == nil {
			return nil, stats, fmt.Errorf("core: unknown image %d", id)
		}
		assign[int(id)] = leaf
		ids = append(ids, int(id))
	}
	if acc == nil {
		acc = disk.NewLRUCache(1 << 16)
	}
	var t *obs.Trace
	if o := e.cfg.Observer; o != nil {
		t = o.StartTrace("query")
		t.SetLabel(obs.TraceLabelFromContext(ctx))
	}
	before := acc.Reads()
	res, err := finalizeGroups(ctx, e, ids, assign, k, weights, acc, &stats.Expansions, t)
	stats.FinalReads = acc.Reads() - before
	return res, stats, err
}

// finalizeGroups is the final round behind Session.Finalize and
// Engine.QueryByExamples: one subquery per assigned subcluster, its search
// area widened by the §3.3 boundary test, run by the shared Final round over
// this engine's tree. Each first-pass search records its node accesses in a
// private trace, replayed into finalIO in subquery order, so results AND
// simulated I/O counts are identical at every Parallelism setting.
func finalizeGroups(ctx context.Context, eng *Engine, relevant []int, assign map[int]*rstar.Node, k int, weights vec.Vector, finalIO disk.Accounter, expansions *int, trace *obs.Trace) (*Result, error) {
	o := eng.cfg.Observer
	var t0 time.Time
	var offsetNS int64
	var readsBefore uint64
	expBefore := *expansions
	if o != nil {
		offsetNS = trace.SinceStart()
		t0 = time.Now()
		readsBefore = finalIO.Reads()
	}
	subs := RankSubqueries(GroupByKey(len(relevant), func(i int) (uint64, bool) {
		n := assign[relevant[i]]
		if n == nil {
			return 0, false
		}
		return uint64(n.ID()), true
	}), k)
	if len(subs) == 0 {
		return nil, errors.New("core: no relevant image lies under the current frontier")
	}

	// Resolve each subquery's search area first (§3.3 boundary test: expand
	// while any local query image sits near its node's boundary), since the
	// search area caps how many images the subquery can supply.
	type prepared struct {
		node, search *rstar.Node
		ids          []rstar.ItemID
		centroid     vec.Vector
	}
	preps := make([]prepared, len(subs))
	caps := make([]int, len(subs))
	for i, sq := range subs {
		p := &preps[i]
		p.node = assign[relevant[sq.Members[0]]]
		p.ids = make([]rstar.ItemID, len(sq.Members))
		qpts := make([]vec.Vector, len(sq.Members))
		for j, m := range sq.Members {
			p.ids[j] = rstar.ItemID(relevant[m])
			qpts[j] = eng.rfs.Point(p.ids[j])
		}
		p.search = eng.rfs.ExpandForQuery(p.node, qpts, eng.cfg.BoundaryThreshold)
		if p.search != p.node {
			*expansions++
		}
		p.centroid = vec.Centroid(qpts)
		caps[i] = eng.rfs.SubtreeSize(p.search)
	}

	recorders := make([]*disk.Recorder, len(subs))
	var sqStats []rstar.SearchStats
	var sqDur, sqOff []int64
	var topupStats rstar.SearchStats
	var topupSt *rstar.SearchStats
	if o != nil {
		sqStats = make([]rstar.SearchStats, len(subs))
		for i := range sqStats {
			sqStats[i].Timed = true // per-phase scan/rerank wall time for the spans
		}
		sqDur = make([]int64, len(subs))
		sqOff = make([]int64, len(subs))
		topupSt = &topupStats
	}
	var mergeStart time.Time
	var mergeOffsetNS int64
	groups, err := Final{
		K:           k,
		Parallelism: eng.cfg.Parallelism,
		Subs:        subs,
		Caps:        caps,
		Search: func(ctx context.Context, i, want int, topUp bool) (hits []Hit, err error) {
			p := &preps[i]
			if topUp {
				return localKNN(ctx, eng, weights, finalIO, p.search, p.centroid, want, topupSt)
			}
			recorders[i] = &disk.Recorder{}
			if o == nil {
				return localKNN(ctx, eng, weights, recorders[i], p.search, p.centroid, want, nil)
			}
			// Tag the subquery so CPU profiles attribute samples to the
			// finalize fan-out; pprof.Do costs a goroutine-label swap, so it
			// is gated on the observer like every other instrumentation point.
			sqOff[i] = trace.SinceStart()
			start := time.Now()
			pprof.Do(ctx, pprof.Labels("phase", "subquery"), func(ctx context.Context) {
				hits, err = localKNN(ctx, eng, weights, recorders[i], p.search, p.centroid, want, &sqStats[i])
			})
			sqDur[i] = time.Since(start).Nanoseconds()
			return hits, err
		},
		Gathered: func() {
			for _, rec := range recorders {
				rec.Replay(finalIO)
			}
			if o != nil {
				mergeOffsetNS = trace.SinceStart()
				mergeStart = time.Now()
			}
		},
	}.Run(ctx)
	if err != nil {
		return nil, err
	}
	res := &Result{Groups: make([]Group, len(groups))}
	allocs := make([]int, len(subs))
	for gi, g := range groups {
		p := &preps[g.Sub]
		allocs[g.Sub] = g.Alloc
		out := Group{Node: p.node, SearchNode: p.search, QueryIDs: p.ids, RankScore: g.RankScore}
		for _, h := range g.Images {
			out.Images = append(out.Images, ScoredImage{ID: rstar.ItemID(h.ID), Score: h.Dist})
		}
		res.Groups[gi] = out
	}
	if o != nil {
		span := obs.FinalizeSpan{
			K:               k,
			OffsetNS:        offsetNS,
			Subqueries:      len(subs),
			Expansions:      *expansions - expBefore,
			PageReads:       finalIO.Reads() - readsBefore,
			HeapPops:        topupStats.HeapPops,
			RerankFallbacks: topupStats.RerankFallbacks,
			MergeOffsetNS:   mergeOffsetNS,
			MergeNS:         time.Since(mergeStart).Nanoseconds(),
			DurationNS:      time.Since(t0).Nanoseconds(),
		}
		for i, sq := range subs {
			p := &preps[i]
			span.HeapPops += sqStats[i].HeapPops
			span.RerankFallbacks += sqStats[i].RerankFallbacks
			span.Subspans = append(span.Subspans, obs.SubquerySpan{
				Node:            sq.Key,
				OffsetNS:        sqOff[i],
				QueryImages:     len(p.ids),
				Allocated:       allocs[i],
				Expanded:        p.search != p.node,
				HeapPops:        sqStats[i].HeapPops,
				NodesRead:       sqStats[i].NodesRead,
				PageAccesses:    uint64(len(recorders[i].Trace())),
				Quantized:       sqStats[i].CodesScanned > 0,
				ScanNS:          sqStats[i].ScanNS,
				RerankNS:        sqStats[i].RerankNS,
				RerankFallbacks: sqStats[i].RerankFallbacks,
				DurationNS:      sqDur[i],
			})
		}
		o.FinalizeDone(trace, span)
	}
	return res, nil
}

// localKNN runs one localized subquery search in the configured scan mode,
// honouring an optional feature-importance weighting. st, when non-nil,
// accumulates the search's effort counters.
func localKNN(ctx context.Context, eng *Engine, weights vec.Vector, acc disk.Accounter, n *rstar.Node, q vec.Vector, k int, st *rstar.SearchStats) ([]Hit, error) {
	tree := eng.rfs.Tree()
	var ns []rstar.Neighbor
	var err error
	switch {
	case weights != nil:
		ns, err = tree.KNNWeightedFromStatsCtx(ctx, n, q, weights, k, acc, st)
	case eng.cfg.Float32:
		ns, err = tree.KNNF32FromStatsCtx(ctx, n, q, k, acc, st)
	case eng.cfg.Quantized:
		ns, err = tree.KNNQuantFromStatsCtx(ctx, n, q, k, eng.cfg.RerankFactor, acc, st)
	default:
		ns, err = tree.KNNFromStatsCtx(ctx, n, q, k, acc, st)
	}
	if err != nil {
		return nil, err
	}
	hits := make([]Hit, len(ns))
	for i, nb := range ns {
		hits[i] = Hit{ID: int(nb.ID), Dist: nb.Dist}
	}
	return hits, nil
}
