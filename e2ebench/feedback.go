package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qdcbir"
	"qdcbir/internal/core"
	"qdcbir/internal/disk"
	"qdcbir/internal/obs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/server"
	"qdcbir/internal/user"
	"qdcbir/internal/vec"
)

// feedback-session: one static f64 server over the paper's full-scale
// corpus, with two closed-loop simulated users running hosted sessions of
// three feedback rounds and a finalize each.

const (
	fbRounds       = 3   // feedback rounds per session
	fbMarks        = 8   // images a user marks per round at most (the simulator default)
	fbBrowse       = 15  // displays a user browses per round before marking (the paper's protocol)
	fbFirstBrowse  = 200 // displays a user browses for a first mark
	fbLaterBrowse  = 60  // displays a user browses in later rounds before giving up
	fbPrecisionSet = 150 // fixed sessions behind the precision metric
	fbTailPct      = 99  // tail percentile: thousands of rounds and finalizes per run
	fbSampled      = 8   // load-phase sessions replayed by the correctness gate
)

type fbDeployment struct {
	sys  *qdcbir.System
	srv  *httpServer
	cl   *client
	cats []fbCategory
	plan []fbSpec // closed-loop session list

	// loadLogs are the load-phase sessions kept whole: a sample spread over
	// an untraced run, or the first ones completed while the tracer was on.
	loadLogs []*fbLog
}

// fbCategory is one query intent: a category's subconcepts and its images.
type fbCategory struct {
	targets []string
	ids     []int
}

// fbSpec is one seeded session: the intent, the server's display seed and
// the user's judgment seed.
type fbSpec struct {
	tag      string
	cat      int
	seed     int64
	userSeed int64
}

// fbLog is what one hosted session showed and answered.
type fbLog struct {
	spec     fbSpec
	displays [][][]int // per round, the candidate IDs of each display
	marks    [][]int   // per round, the images marked
	final    []byte    // the finalize response body
	roundLat []time.Duration
	finLat   time.Duration
}

func setupFeedback(ctx context.Context, seed int64, tr *Tracer) (Deployment, error) {
	cfg := qdcbir.DefaultConfig()
	cfg.VectorMode = true
	cfg.Seed = seed
	sys, err := qdcbir.BuildContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	sys = sys.WithObserver(obs.New(obs.NewRegistry()))
	srv := server.New(sys.Engine(), sys.SubconceptOf)
	hs, err := serve(tr.middleware("server", endpointOf, srv.Handler()))
	if err != nil {
		return nil, err
	}
	d := &fbDeployment{sys: sys, srv: hs, cl: newClient(hs.url, conns)}
	if err := waitHealthy(ctx, d.cl); err != nil {
		d.close()
		return nil, err
	}
	d.cats = fbCategories(sys)
	rng := rand.New(rand.NewSource(seed*7 + 3))
	d.plan = fbPlan(rng, len(d.cats), "s", 4096)
	return d, nil
}

// fbCategories lists every category's intent in name order.
func fbCategories(sys *qdcbir.System) []fbCategory {
	c := sys.Corpus()
	names := c.Categories()
	sort.Strings(names)
	out := make([]fbCategory, 0, len(names))
	for _, n := range names {
		ids := c.CategoryIDs(n)
		seen := map[string]bool{}
		var targets []string
		for _, id := range ids {
			if sc := c.SubconceptOf(id); !seen[sc] {
				seen[sc] = true
				targets = append(targets, sc)
			}
		}
		sort.Strings(targets)
		out = append(out, fbCategory{targets: targets, ids: ids})
	}
	return out
}

// fbPlan draws n seeded session specs.
func fbPlan(rng *rand.Rand, cats int, prefix string, n int) []fbSpec {
	out := make([]fbSpec, n)
	for i := range out {
		out[i] = fbSpec{
			tag:      fmt.Sprintf("%s%d", prefix, i),
			cat:      rng.Intn(cats),
			seed:     rng.Int63n(1<<40) + 1, // 0 would ask the server to pick
			userSeed: rng.Int63(),
		}
	}
	return out
}

func (d *fbDeployment) user(spec fbSpec) *user.Simulator {
	u := user.New(d.cats[spec.cat].targets, d.sys.SubconceptOf, rand.New(rand.NewSource(spec.userSeed)))
	u.MaxPerRound = fbMarks
	return u
}

// session runs one hosted session over HTTP.
func (d *fbDeployment) session(ctx context.Context, cl *client, spec fbSpec) (*fbLog, error) {
	log := &fbLog{spec: spec}
	body, _ := json.Marshal(map[string]int64{"seed": spec.seed})
	raw, err := cl.do(ctx, http.MethodPost, "/v1/sessions", body, spec.tag)
	if err != nil {
		return log, fmt.Errorf("create: %w", err)
	}
	var sr server.SessionResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return log, err
	}
	base := "/v1/sessions/" + sr.SessionID
	u := d.user(spec)
	for round := 0; round < fbRounds; round++ {
		t0 := time.Now()
		budget := fbLaterBrowse
		if round == 0 {
			budget = fbFirstBrowse
		}
		// The user browses fbBrowse displays, and keeps browsing until one
		// shows a relevant image, then marks across everything shown.
		var shown [][]int
		var seen []int
		seenSet := map[int]bool{}
		relevantShown := false
		for disp := 0; disp < budget && (disp < fbBrowse || !relevantShown); disp++ {
			raw, err := cl.do(ctx, http.MethodGet, base+"/candidates", nil, fmt.Sprintf("%s-r%d-d%d", spec.tag, round, disp))
			if err != nil {
				return log, fmt.Errorf("candidates: %w", err)
			}
			var cr struct {
				Candidates []server.CandidateJSON `json:"candidates"`
			}
			if err := json.Unmarshal(raw, &cr); err != nil {
				return log, err
			}
			ids := make([]int, len(cr.Candidates))
			for i, c := range cr.Candidates {
				ids[i] = c.ID
			}
			shown = append(shown, ids)
			for _, id := range ids {
				if !seenSet[id] {
					seenSet[id] = true
					seen = append(seen, id)
					relevantShown = relevantShown || u.IsRelevant(id)
				}
			}
		}
		marks := u.SelectDiverse(seen)
		if round == 0 && len(marks) == 0 {
			return log, errors.New("no relevant image shown in the first round")
		}
		body, _ := json.Marshal(server.FeedbackRequest{Relevant: append([]int{}, marks...)})
		if _, err := cl.do(ctx, http.MethodPost, base+"/feedback", body, fmt.Sprintf("%s-r%d-fb", spec.tag, round)); err != nil {
			return log, fmt.Errorf("feedback: %w", err)
		}
		log.roundLat = append(log.roundLat, time.Since(t0))
		log.displays = append(log.displays, shown)
		log.marks = append(log.marks, marks)
	}
	body, _ = json.Marshal(map[string]int{"k": len(d.cats[spec.cat].ids)})
	t0 := time.Now()
	raw, err = cl.do(ctx, http.MethodPost, base+"/finalize", body, spec.tag+"-fin")
	if err != nil {
		return log, fmt.Errorf("finalize: %w", err)
	}
	log.finLat = time.Since(t0)
	log.final = raw
	return log, nil
}

// fbLoad is what one closed-loop phase measured. Only the sessions the
// correctness gate and the traced replay re-run are kept whole, so that the
// harness's own heap stays flat while it measures.
type fbLoad struct {
	rounds, fins []float64 // latencies in ms
	kept         []*fbLog
	done, failed int
	elapsed      time.Duration
}

// closedLoop runs the session plan with conns concurrent users for dur;
// sessions started before the deadline run to completion. Of the sessions
// whose plan index is a multiple of keepEvery, the first keepMax are kept.
func (d *fbDeployment) closedLoop(ctx context.Context, dur time.Duration, next *atomic.Int64, keepEvery, keepMax int) *fbLoad {
	var mu sync.Mutex
	var wg sync.WaitGroup
	out := &fbLoad{}
	start := time.Now()
	for u := 0; u < conns; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				i := int(next.Add(1)-1) % len(d.plan)
				log, err := d.session(ctx, d.cl, d.plan[i])
				mu.Lock()
				if err != nil {
					out.failed++
				} else {
					out.done++
					for _, t := range log.roundLat {
						out.rounds = append(out.rounds, ms(t))
					}
					out.fins = append(out.fins, ms(log.finLat))
					if i%keepEvery == 0 && len(out.kept) < keepMax {
						out.kept = append(out.kept, log)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

func (d *fbDeployment) measure(ctx context.Context, r *Run) error {
	var next atomic.Int64
	if !r.Traced {
		load := d.closedLoop(ctx, r.duration(1), &next, 200, fbSampled)
		d.loadLogs = load.kept
		r.Attempted += load.done + load.failed
		r.Failed += load.failed
		round, fin := summarizeAt(load.rounds, fbTailPct), summarizeAt(load.fins, fbTailPct)
		r.noteSummary("round (step)", round)
		r.noteSummary("finalize (query)", fin)
		r.E2E["step_p50_ms"] = round.P50
		r.E2E["query_p50_ms"] = fin.P50
		r.E2E["capacity_per_s"] = float64(load.done) / load.elapsed.Seconds()
		r.note("sessions           %d completed, %d failed in %.2fs", load.done, load.failed, load.elapsed.Seconds())
		return nil
	}
	// Traced run: the same loop untraced, then traced, for the overhead.
	plain := d.closedLoop(ctx, r.duration(0.5), &next, 1, 0)
	r.Tracer.on.Store(true)
	traced := d.closedLoop(ctx, r.duration(0.5), &next, 1, 40)
	r.Tracer.on.Store(false)
	d.loadLogs = traced.kept
	r.Attempted += plain.done + traced.done + plain.failed + traced.failed
	r.Failed += plain.failed + traced.failed
	a, b := median(plain.rounds), median(traced.rounds)
	r.Layer["trace.overhead_frac"] = (b - a) / a
	return nil
}

// replaySession re-runs a logged session in process with the same seed and
// marks, checking each display, and returns the finalize result, its
// expected wire form, and the engine time spent per round and in finalize.
func (d *fbDeployment) replaySession(ctx context.Context, log *fbLog) (*core.Result, []byte, []time.Duration, time.Duration, error) {
	sess := d.sys.Engine().NewSession(rand.New(rand.NewSource(log.spec.seed)))
	var rounds []time.Duration
	for round, shown := range log.displays {
		t0 := time.Now()
		var cands [][]int
		for range shown {
			cs := sess.Candidates()
			ids := make([]int, len(cs))
			for i, c := range cs {
				ids[i] = int(c.ID)
			}
			cands = append(cands, ids)
		}
		marks := make([]rstar.ItemID, len(log.marks[round]))
		for i, m := range log.marks[round] {
			marks[i] = rstar.ItemID(m)
		}
		if err := sess.Feedback(marks); err != nil {
			return nil, nil, nil, 0, err
		}
		rounds = append(rounds, time.Since(t0))
		for i := range shown {
			if fmt.Sprint(cands[i]) != fmt.Sprint(shown[i]) {
				return nil, nil, nil, 0, fmt.Errorf("round %d display %d differs", round, i)
			}
		}
	}
	t0 := time.Now()
	res, err := sess.FinalizeCtx(ctx, len(d.cats[log.spec.cat].ids))
	fin := time.Since(t0)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	want, err := json.Marshal(wireResult(res, sess.Stats(), d.sys.SubconceptOf))
	return res, want, rounds, fin, err
}

// wireResult is the /v1/sessions/{id}/finalize response a core result maps to.
func wireResult(res *core.Result, st core.Stats, label func(int) string) server.QueryResponse {
	out := server.QueryResponse{Stats: server.StatsJSON{
		FeedbackReads: st.FeedbackReads,
		FinalReads:    st.FinalReads,
		Expansions:    st.Expansions,
	}}
	for _, g := range res.Groups {
		gj := server.GroupJSON{RankScore: g.RankScore, Expanded: g.SearchNode != g.Node}
		for _, id := range g.QueryIDs {
			gj.QueryImages = append(gj.QueryImages, int(id))
		}
		for _, im := range g.Images {
			gj.Images = append(gj.Images, server.ScoredJSON{ID: int(im.ID), Score: im.Score, Label: label(int(im.ID))})
		}
		out.Groups = append(out.Groups, gj)
	}
	return out
}

// sameJSON compares two JSON documents after canonical re-encoding.
func sameJSON(a, b []byte) bool {
	var x, y server.QueryResponse
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	ra, _ := json.Marshal(x)
	rb, _ := json.Marshal(y)
	return string(ra) == string(rb)
}

func (d *fbDeployment) check(ctx context.Context, r *Run) error {
	// Precision over a fixed seeded list of sessions, run one at a time so
	// the figure repeats exactly for a seed.
	rng := rand.New(rand.NewSource(r.Seed*11 + 5))
	fixed := fbPlan(rng, len(d.cats), "p", fbPrecisionSet)
	var precs []float64
	var logs []*fbLog
	for _, spec := range fixed {
		r.Attempted++
		log, err := d.session(ctx, d.cl, spec)
		if err != nil {
			r.Failed++
			r.note("precision session %s failed: %v", spec.tag, err)
			continue
		}
		logs = append(logs, log)
		var resp server.QueryResponse
		if err := json.Unmarshal(log.final, &resp); err != nil {
			return err
		}
		relevant := map[int]bool{}
		for _, id := range d.cats[spec.cat].ids {
			relevant[id] = true
		}
		hits := 0
		for _, g := range resp.Groups {
			for _, im := range g.Images {
				if relevant[im.ID] {
					hits++
				}
			}
		}
		precs = append(precs, float64(hits)/float64(len(relevant)))
	}
	r.E2E["precision"] = mean(precs)
	// Replay the fixed sessions and a sample of the load phase in process.
	sample := d.loadLogs
	if len(sample) > fbSampled {
		step := len(sample) / fbSampled
		var s []*fbLog
		for i := 0; i < fbSampled; i++ {
			s = append(s, sample[i*step])
		}
		sample = s
	}
	for _, log := range append(logs, sample...) {
		r.Attempted++
		_, want, _, _, err := d.replaySession(ctx, log)
		if err != nil {
			r.mismatch("session %s: %v", log.spec.tag, err)
			continue
		}
		if !sameJSON(want, log.final) {
			r.mismatch("session %s: finalize differs from the in-process replay", log.spec.tag)
		}
	}
	r.note("correctness        %d sessions replayed in process", len(logs)+len(sample))
	return nil
}

func (d *fbDeployment) replay(ctx context.Context, r *Run) error {
	logs := d.loadLogs
	spans := byName(r.Tracer.snapshot())
	// Server handler time per round and per finalize, joined by request id.
	handler := map[string]time.Duration{}
	var respBytes, responses float64
	for name, ss := range spans {
		if !strings.HasPrefix(name, "server:") {
			continue
		}
		for _, s := range ss {
			handler[s.Req] += s.dur()
			respBytes += float64(s.Bytes)
			responses++
		}
	}
	// Round requests are tagged <session>-r<round>-<display or fb>.
	roundHandler := map[string]time.Duration{}
	for req, t := range handler {
		if strings.Contains(req, "-r") {
			roundHandler[req[:strings.LastIndex(req, "-")]] += t
		}
	}
	tree := d.sys.RFS().Tree()
	var srvRound, srvFin, coreRound, coreFin []float64
	var finHandlerSum, finEngineSum, descentSum, flatSum, kernelSum, batchSum, serialSum time.Duration
	var rowsSwept float64
	var groups, expansions, bundles, bundleWidth []float64
	var nodes, rowsPerResult []float64
	var descents []float64
	flatSlab := map[*rstar.Node][]float64{}
	var bigSlab []float64
	for _, log := range logs {
		res, _, rounds, fin, err := d.replaySession(ctx, log)
		if err != nil {
			return err
		}
		for i, t := range rounds {
			coreRound = append(coreRound, us(t))
			if h, ok := roundHandler[fmt.Sprintf("%s-r%d", log.spec.tag, i)]; ok {
				srvRound = append(srvRound, ms(h))
			}
		}
		coreFin = append(coreFin, us(fin))
		if h, ok := handler[log.spec.tag+"-fin"]; ok {
			srvFin = append(srvFin, ms(h))
			finHandlerSum += h
			finEngineSum += fin
		}
		groups = append(groups, float64(len(res.Groups)))
		exp := 0
		bySearch := map[*rstar.Node][]int{}
		var order []*rstar.Node
		for gi, g := range res.Groups {
			if g.SearchNode != g.Node {
				exp++
			}
			if _, ok := bySearch[g.SearchNode]; !ok {
				order = append(order, g.SearchNode)
			}
			bySearch[g.SearchNode] = append(bySearch[g.SearchNode], gi)
		}
		expansions = append(expansions, float64(exp))
		// Each group's localized subquery, replayed alone and against a flat
		// sweep of the same subtree's rows.
		qs := make([]vec.Vector, len(res.Groups))
		for gi, g := range res.Groups {
			pts := make([]vec.Vector, len(g.QueryIDs))
			for i, id := range g.QueryIDs {
				pts[i] = d.sys.RFS().Point(id)
			}
			qs[gi] = vec.Centroid(pts)
			k := len(g.Images)
			var st rstar.SearchStats
			t0 := time.Now()
			if _, err := tree.KNNFromStatsCtx(ctx, g.SearchNode, qs[gi], k, &disk.Counter{}, &st); err != nil {
				return err
			}
			took := time.Since(t0)
			descentSum += took
			descents = append(descents, us(took))
			nodes = append(nodes, float64(st.NodesRead))
			if k > 0 {
				rowsPerResult = append(rowsPerResult, float64(st.ItemsScored)/float64(k))
			}
			slab, ok := flatSlab[g.SearchNode]
			if !ok {
				slab = subtreeSlab(g.SearchNode)
				flatSlab[g.SearchNode] = slab
				if len(slab) > len(bigSlab) {
					bigSlab = slab
				}
			}
			flat, kernel := flatSweep(qs[gi], slab, k)
			flatSum += flat
			kernelSum += kernel
			rowsSwept += float64(len(slab) / len(qs[gi]))
		}
		// Same-node bundles: the batch descent against the same descents one
		// at a time. Natural bundles (groups sharing a search node) are
		// rare, so each group's example points also form a bundle at its
		// search node.
		type bundle struct {
			node *rstar.Node
			qs   []vec.Vector
			ks   []int
		}
		var bs []bundle
		for _, n := range order {
			idx := bySearch[n]
			bundles = append(bundles, float64(len(idx)))
			if len(idx) < 2 {
				continue
			}
			b := bundle{node: n}
			for _, gi := range idx {
				b.qs = append(b.qs, qs[gi])
				b.ks = append(b.ks, len(res.Groups[gi].Images))
			}
			bs = append(bs, b)
		}
		for _, g := range res.Groups {
			if len(g.QueryIDs) < 2 || len(g.Images) == 0 {
				continue
			}
			b := bundle{node: g.SearchNode}
			for _, id := range g.QueryIDs {
				b.qs = append(b.qs, d.sys.RFS().Point(id))
				b.ks = append(b.ks, len(g.Images))
			}
			bs = append(bs, b)
		}
		for _, b := range bs {
			batch, serial, err := batchVsSerial(ctx, tree, b.node, b.qs, b.ks)
			if err != nil {
				return err
			}
			batchSum += batch
			serialSum += serial
		}
		bundleWidth = append(bundleWidth, float64(len(res.Groups))/float64(len(order)))
	}
	L := r.Layer
	L["server.round_ms"] = median(srvRound)
	L["server.finalize_ms"] = median(srvFin)
	if finHandlerSum > 0 {
		L["server.shell_share"] = float64(finHandlerSum-finEngineSum) / float64(finHandlerSum)
	}
	if responses > 0 {
		L["server.resp_kb"] = respBytes / responses / 1024
	}
	L["core.round_us"] = median(coreRound)
	L["core.finalize_us"] = median(coreFin)
	L["core.groups"] = mean(groups)
	L["core.expansions"] = mean(expansions)
	L["core.bundle_width"] = mean(bundles)
	var finSum float64
	for _, f := range coreFin {
		finSum += f
	}
	if finSum > 0 {
		L["core.descent_share"] = us(descentSum) / finSum
	}
	L["rstar.descent_us"] = median(descents)
	L["rstar.nodes_per_search"] = mean(nodes)
	L["rstar.rows_per_result"] = mean(rowsPerResult)
	if serialSum > 0 {
		L["rstar.batch_over_serial"] = float64(batchSum) / float64(serialSum)
	}
	if flatSum > 0 {
		L["rstar.descent_over_flat"] = float64(descentSum) / float64(flatSum)
	}
	dim := d.sys.RFS().Tree().Dim()
	if rowsSwept > 0 {
		L["vec.ns_per_row"] = float64(kernelSum) / rowsSwept
		L["vec.gb_per_s"] = rowsSwept * float64(dim) * 8 / float64(kernelSum)
	}
	L["vec.multi_over_serial"] = multiOverSerial64(bigSlab, dim, widthOf(mean(bundleWidth)))
	st := d.sys.Corpus().Store()
	L["store.table_mb"] = float64(len(st.Backing())*8+len(st.Backing32())*4) / (1 << 20)
	L["loadgen.conns_opened"] = float64(d.cl.dials.Load())
	return nil
}

func (d *fbDeployment) close() {
	d.cl.close()
	d.srv.close()
}
