package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"qdcbir"
	"qdcbir/internal/disk"
	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/seg"
	"qdcbir/internal/server"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// ingest-mixed: one dynamic SQ8 server over the paper's 15,000-image corpus
// taking inserts and deletes next to query panels, open-loop, for long
// enough to seal and compact segments several times.

const (
	inNominal     = 300.0 // req/s offered in the nominal phase
	inTailPct     = 99    // tail percentile: about 1,700 query and 1,900 write samples per run
	inLimitMS     = 250.0 // read tail limit of the capacity ladder
	inInsertShare = 0.40
	inDeleteShare = 0.12
	inDeleteLag   = 32 // a delete targets an insert issued at least this many inserts earlier
	inPanels      = 128
	inPanelSize   = 4
	inQueryK      = 50
	inReplays     = 32    // panels replayed through the engine in the traced run
	inNoise       = 0.015 // spread of an inserted vector around its source image
)

// inLadder is the capacity ladder's offered rates, req/s.
var inLadder = []float64{360, 450, 540, 630, 720, 810, 900, 1000, 1120, 1250}

type inDeployment struct {
	sys   *qdcbir.System
	dyn   *qdcbir.Dynamic
	store *timedStore
	obs   *obs.Observer
	srv   *httpServer
	cl    *client
	tr    *Tracer

	panels [][]int
	base   int // rows of the adopted corpus
	seed   int64

	// Writes: every insert has a vector, a label and, once acknowledged,
	// an ID; deletes name inserts by ordinal.
	mu      sync.Mutex
	insVec  [][]float64
	insLab  []string
	insID   []int
	insDone []chan struct{}
	alive   []int // ordinals inserted and not yet scheduled for deletion
}

// timedStore is the server.DynamicStore the server fronts: it passes every
// call to the engine and, while the tracer is on, times inserts and deletes.
type timedStore struct {
	*qdcbir.Dynamic
	tr      *Tracer
	mu      sync.Mutex
	inserts []float64
	deletes []float64
}

func (s *timedStore) Insert(v vec.Vector, label string) (int, error) {
	if !s.tr.active() {
		return s.Dynamic.Insert(v, label)
	}
	t0 := time.Now()
	id, err := s.Dynamic.Insert(v, label)
	s.mu.Lock()
	s.inserts = append(s.inserts, us(time.Since(t0)))
	s.mu.Unlock()
	return id, err
}

func (s *timedStore) Delete(id int) error {
	if !s.tr.active() {
		return s.Dynamic.Delete(id)
	}
	t0 := time.Now()
	err := s.Dynamic.Delete(id)
	s.mu.Lock()
	s.deletes = append(s.deletes, us(time.Since(t0)))
	s.mu.Unlock()
	return err
}

func setupIngest(ctx context.Context, seed int64, tr *Tracer) (Deployment, error) {
	cfg := qdcbir.DefaultConfig()
	cfg.VectorMode = true
	cfg.Seed = seed
	cfg.Quantized = true
	sys, err := qdcbir.BuildContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	o := obs.New(obs.NewRegistry())
	dyn, err := qdcbir.OpenDynamic(sys, qdcbir.DynamicConfig{Quantized: true, Observer: o})
	if err != nil {
		return nil, err
	}
	ts := &timedStore{Dynamic: dyn, tr: tr}
	srv := server.NewDynamic(ts, o)
	hs, err := serve(tr.middleware("server", endpointOf, srv.Handler()))
	if err != nil {
		dyn.Close()
		return nil, err
	}
	d := &inDeployment{sys: sys, dyn: dyn, store: ts, obs: o, srv: hs, cl: newClient(hs.url, conns), tr: tr,
		base: sys.Len(), seed: seed}
	if err := waitHealthy(ctx, d.cl); err != nil {
		d.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*19 + 4))
	c := sys.Corpus()
	subs := c.Subconcepts()
	sort.Strings(subs)
	for i := 0; i < inPanels; i++ {
		var members []int
		for len(members) < inPanelSize {
			members = c.SubconceptIDs(subs[rng.Intn(len(subs))])
		}
		var p []int
		for j := 0; j < inPanelSize; j++ {
			p = append(p, members[rng.Intn(len(members))])
		}
		d.panels = append(d.panels, p)
	}
	return d, nil
}

// draw picks one request of the mix. Inserts get a fresh vector near a
// random corpus image; deletes name an earlier insert; the rest are query
// panels. Drawing is sequential, so write ordinals are global across phases.
func (d *inDeployment) draw(rng *rand.Rand) (int, int) {
	u := rng.Float64()
	if u < inInsertShare {
		return d.drawInsert(rng)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case u < inInsertShare+inDeleteShare && len(d.alive) > 0:
		i := rng.Intn(len(d.alive))
		ord := d.alive[i]
		d.alive[i] = d.alive[len(d.alive)-1]
		d.alive = d.alive[:len(d.alive)-1]
		return kindDelete, ord
	}
	return kindQuery, rng.Intn(inPanels)
}

// drawInsert registers one insert: a fresh vector near a random corpus
// image, labelled with that image's subconcept.
func (d *inDeployment) drawInsert(rng *rand.Rand) (int, int) {
	src := rng.Intn(d.base)
	v := append([]float64(nil), d.sys.Corpus().Store().At(src)...)
	for j := range v {
		v[j] += rng.NormFloat64() * inNoise
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ord := len(d.insVec)
	d.insVec = append(d.insVec, v)
	d.insLab = append(d.insLab, d.sys.SubconceptOf(src))
	d.insID = append(d.insID, -1)
	d.insDone = append(d.insDone, make(chan struct{}))
	if ord >= inDeleteLag {
		d.alive = append(d.alive, ord-inDeleteLag)
	}
	return kindInsert, ord
}

// warmUp brings the engine to the start of a compaction cycle: it inserts,
// two requests at a time, until the first compaction has completed, so that
// every measured window starts at the same point of the seal and compaction
// cadence.
func (d *inDeployment) warmUp(ctx context.Context) error {
	cfg := d.dyn.DB().Config()
	n := cfg.SealThreshold*cfg.MaxSegments + cfg.SealThreshold/4
	rng := rand.New(rand.NewSource(d.seed*41 + 2))
	items := make([]Item, n)
	for i := range items {
		items[i].Kind, items[i].Arg = d.drawInsert(rng)
	}
	before := d.dyn.Stats().Compactions
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += conns {
				errs[w] = d.send(ctx, items[i], "")
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for d.dyn.Stats().Compactions == before {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

func (d *inDeployment) isRead(k int) bool { return k == kindQuery }

func (d *inDeployment) send(ctx context.Context, it Item, reqID string) error {
	switch it.Kind {
	case kindInsert:
		d.mu.Lock()
		body, _ := json.Marshal(map[string]any{"vector": d.insVec[it.Arg], "label": d.insLab[it.Arg]})
		done := d.insDone[it.Arg]
		d.mu.Unlock()
		raw, err := d.cl.do(ctx, http.MethodPost, "/v1/images", body, reqID)
		var resp struct {
			ID int `json:"id"`
		}
		if err == nil {
			err = json.Unmarshal(raw, &resp)
		}
		d.mu.Lock()
		if err == nil {
			d.insID[it.Arg] = resp.ID
		}
		d.mu.Unlock()
		close(done)
		return err
	case kindDelete:
		d.mu.Lock()
		done := d.insDone[it.Arg]
		d.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
		d.mu.Lock()
		id := d.insID[it.Arg]
		d.mu.Unlock()
		if id < 0 {
			return fmt.Errorf("delete: insert %d was never acknowledged", it.Arg)
		}
		_, err := d.cl.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/images/%d", id), nil, reqID)
		return err
	}
	body, _ := json.Marshal(server.QueryRequest{Relevant: d.panels[it.Arg], K: inQueryK})
	_, err := d.cl.do(ctx, http.MethodPost, "/v1/query", body, reqID)
	return err
}

func (d *inDeployment) nominal(ctx context.Context, seed int64, dur time.Duration, tag string) Outcome {
	sched := schedule(rand.New(rand.NewSource(seed)), inNominal, dur, d.draw)
	return runOpen(ctx, sched, conns, dur/2, func(ctx context.Context, i int) error {
		return d.send(ctx, sched[i], fmt.Sprintf("%s%d", tag, i))
	})
}

func isWrite(k int) bool { return k == kindInsert || k == kindDelete }

// engineSampler polls the engine's shape while a phase runs.
type engineSampler struct {
	segs, tombFrac []float64
	compactRows    []float64 // live rows at each observed compaction
}

func (d *inDeployment) sample(stop <-chan struct{}, done chan<- engineSampler) {
	var es engineSampler
	last := d.dyn.Stats().Compactions
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			done <- es
			return
		case <-t.C:
		}
		st := d.dyn.Stats()
		n := float64(st.Segments)
		if st.MemRows > 0 {
			n++
		}
		es.segs = append(es.segs, n)
		if total := st.Live + st.Tombstones; total > 0 {
			es.tombFrac = append(es.tombFrac, float64(st.Tombstones)/float64(total))
		}
		for ; last < st.Compactions; last++ {
			es.compactRows = append(es.compactRows, float64(st.Live))
		}
	}
}

func (d *inDeployment) measure(ctx context.Context, r *Run) error {
	if err := d.warmUp(ctx); err != nil {
		return err
	}
	if r.Traced {
		plain := d.nominal(ctx, r.Seed*37+1, r.duration(0.5), "u")
		reg := d.obs.Registry()
		counter := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
		names := []string{"qd_seg_seals_total", "qd_seg_seal_ns_total", "qd_seg_compactions_total", "qd_seg_compact_ns_total", "qd_seg_inserts_total"}
		before := map[string]float64{}
		for _, n := range names {
			before[n] = counter(n)
		}
		stop, done := make(chan struct{}), make(chan engineSampler, 1)
		go d.sample(stop, done)
		d.tr.on.Store(true)
		traced := d.nominal(ctx, r.Seed*37+2, r.duration(0.5), "t")
		d.tr.on.Store(false)
		close(stop)
		es := <-done
		delta := map[string]float64{}
		for _, n := range names {
			delta[n] = counter(n) - before[n]
		}
		for _, out := range []Outcome{plain, traced} {
			lat, failed := latencies(out, func(int) bool { return true })
			r.Attempted += len(lat)
			r.Failed += failed
		}
		L := r.Layer
		a, _ := latencies(plain, d.isRead)
		b, _ := latencies(traced, d.isRead)
		L["trace.overhead_frac"] = (median(b) - median(a)) / median(a)
		L["loadgen.late_ms_p99"] = summarizeAt(append(lateness(plain), lateness(traced)...), 99).Tail
		L["loadgen.backlog"] = float64(traced.Backlog)
		L["seg.seals"] = delta["qd_seg_seals_total"]
		L["seg.compactions"] = delta["qd_seg_compactions_total"]
		if s := delta["qd_seg_seals_total"]; s > 0 {
			L["seg.seal_ms"] = delta["qd_seg_seal_ns_total"] / s / 1e6
		}
		if c := delta["qd_seg_compactions_total"]; c > 0 {
			L["seg.compact_ms"] = delta["qd_seg_compact_ns_total"] / c / 1e6
		}
		if ins := delta["qd_seg_inserts_total"]; ins > 0 {
			written := delta["qd_seg_seals_total"] * float64(d.dyn.DB().Config().SealThreshold)
			for _, rows := range es.compactRows {
				written += rows
			}
			L["seg.write_amp"] = written / ins
		}
		L["seg.segments_per_query"] = mean(es.segs)
		L["seg.tombstone_frac"] = mean(es.tombFrac)
		return nil
	}
	out := d.nominal(ctx, r.Seed*37+1, r.duration(0.5), "n")
	reads, f1 := latencies(out, d.isRead)
	writes, f2 := latencies(out, isWrite)
	r.Attempted += len(reads) + len(writes)
	r.Failed += f1 + f2
	ws, qs := summarizeAt(writes, inTailPct), summarizeAt(reads, inTailPct)
	r.noteSummary("write (step)", ws)
	r.noteSummary("query (query)", qs)
	r.E2E["step_p50_ms"] = ws.P50
	r.E2E["query_p50_ms"] = qs.P50
	late := summarizeAt(lateness(out), 99)
	r.note("loadgen            late p%g=%.3f ms, final backlog %d, %d connections opened", late.TailPct, late.Tail, out.Backlog, d.cl.dials.Load())
	rungs := climb(ctx, r.Seed*37+7, inLadder, r.duration(0.08), inLimitMS, inTailPct, d.draw, d.isRead, d.send)
	rate, capped := maxRate(rungs, inLimitMS)
	r.E2E["capacity_per_s"] = rate
	r.note("ladder             %s -> max_qps %.1f (capped %v)", formatRungs(rungs), rate, capped)
	st := d.dyn.Stats()
	r.note("engine             epoch %d, %d segments, %d seals, %d compactions, %d live, %d tombstones", st.Epoch, st.Segments, st.Seals, st.Compactions, st.Live, st.Tombstones)
	return nil
}

// rebuild builds the reference engine: one sealed segment holding exactly
// the snapshot's live rows under the same IDs, built with the engine's own
// settings, plus an empty memtable.
func rebuild(ctx context.Context, cfg seg.Config, snap *seg.Snapshot) (*seg.DB, error) {
	ids := snap.LiveIDs(nil)
	backing := make([]float64, 0, len(ids)*cfg.Dim)
	for _, id := range ids {
		v, ok := snap.VectorOf(id)
		if !ok {
			return nil, fmt.Errorf("live id %d has no vector", id)
		}
		backing = append(backing, v...)
	}
	st, err := store.FromBacking(cfg.Dim, backing)
	if err != nil {
		return nil, err
	}
	structure, err := rfs.BuildStoreCtx(ctx, st, rfs.BuildConfig{
		RepFraction: cfg.RepFraction,
		Tree:        rstar.Config{MaxFill: cfg.NodeCapacity},
		TargetFill:  cfg.NodeCapacity * 93 / 100,
		Seed:        cfg.Seed + 2,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	quantized := false
	if cfg.Quantized {
		if qz, err := store.Quantize(st); err == nil && structure.AdoptQuantized(qz) == nil {
			quantized = true
		}
	}
	next := ids[len(ids)-1] + 1
	cfg.Observer = nil
	return seg.Restore(cfg, []seg.SealedInput{{IDs: ids, Store: st, Structure: structure, Quantized: quantized}},
		seg.MemInput{BaseID: next}, next, 0)
}

// dynWire is the /v1/query response a segmented result maps to.
func dynWire(res *seg.Result, label func(int) string) server.QueryResponse {
	var out server.QueryResponse
	for _, g := range res.Groups {
		gj := server.GroupJSON{RankScore: g.RankScore, QueryImages: g.QueryIDs}
		for _, im := range g.Images {
			gj.Images = append(gj.Images, server.ScoredJSON{ID: im.ID, Score: im.Score, Label: label(im.ID)})
		}
		out.Groups = append(out.Groups, gj)
	}
	return out
}

func (d *inDeployment) check(ctx context.Context, r *Run) error {
	// The load phases have returned, so no write is in flight: the live set
	// is quiescent (background compaction may still run; it must not change
	// any answer).
	snap := d.dyn.DB().Acquire()
	ref, err := rebuild(ctx, d.dyn.DB().Config(), snap)
	snap.Release()
	if err != nil {
		return err
	}
	defer ref.Close()
	refSnap := ref.Acquire()
	defer refSnap.Release()
	var precs []float64
	for _, p := range d.panels {
		r.Attempted++
		body, _ := json.Marshal(server.QueryRequest{Relevant: p, K: inQueryK})
		raw, err := d.cl.do(ctx, http.MethodPost, "/v1/query", body, "")
		if err != nil {
			r.Failed++
			continue
		}
		res, err := refSnap.QueryByExamplesCtx(ctx, p, inQueryK, nil)
		if err != nil {
			return err
		}
		want, _ := json.Marshal(dynWire(res, d.dyn.LabelOf))
		if !sameJSON(want, raw) {
			r.mismatch("query panel %v differs from the clean rebuild", p)
		}
		sub := d.sys.SubconceptOf(p[0])
		hits, total := 0, 0
		for _, g := range res.Groups {
			for _, im := range g.Images {
				total++
				if d.dyn.LabelOf(im.ID) == sub {
					hits++
				}
			}
		}
		if total > 0 {
			precs = append(precs, float64(hits)/float64(total))
		}
	}
	r.E2E["precision"] = mean(precs)
	r.note("correctness        %d query panels compared with a clean rebuild of %d live rows", len(d.panels), refSnap.Live())
	return nil
}

func (d *inDeployment) replay(ctx context.Context, r *Run) error {
	L := r.Layer
	spans := byName(r.Tracer.snapshot())
	var writes []Span
	var bytes, n float64
	for name, ss := range spans {
		if strings.HasPrefix(name, "server:/v1/images") {
			writes = append(writes, ss...)
		}
		for _, s := range ss {
			bytes += float64(s.Bytes)
			n++
		}
	}
	handler := median(durationsMS(spans["server:/v1/query"]))
	L["server.query_ms"] = handler
	L["server.write_ms"] = median(durationsMS(writes))
	if n > 0 {
		L["server.resp_kb"] = bytes / n / 1024
	}
	d.store.mu.Lock()
	L["seg.insert_us"] = median(d.store.inserts)
	L["seg.delete_us"] = median(d.store.deletes)
	d.store.mu.Unlock()

	// The snapshot's query path, then each segment's tree, replayed alone.
	snap := d.dyn.DB().Acquire()
	defer snap.Release()
	var queries []float64
	for _, p := range d.panels[:inReplays] {
		t0 := time.Now()
		if _, err := snap.QueryByExamplesCtx(ctx, p, inQueryK, nil); err != nil {
			return err
		}
		queries = append(queries, us(time.Since(t0)))
	}
	L["seg.query_us"] = median(queries)
	if handler > 0 {
		L["server.shell_share"] = (handler*1000 - median(queries)) / (handler * 1000)
	}
	rerank := d.dyn.DB().Config().RerankFactor
	var descents, nodes, rows []float64
	var descentSum, flatSum, kernelSum, batchSum, serialSum time.Duration
	var fallbacks, searches, swept, tableBytes float64
	var codes []uint8
	for _, in := range snap.SealedInputs() {
		tree := in.Structure.Tree()
		st := in.Store
		tableBytes += float64(st.Len() * st.Dim() * 8)
		if in.Quantized {
			tableBytes += float64(st.Len() * st.Dim())
		}
		if !in.Quantized {
			continue
		}
		slab := st.Backing()
		var qs []vec.Vector
		for _, p := range d.panels[:inReplays] {
			pts := make([]vec.Vector, len(p))
			for i, id := range p {
				pts[i] = d.sys.Corpus().Store().At(id)
			}
			q := vec.Centroid(pts)
			qs = append(qs, q)
			var ss rstar.SearchStats
			t0 := time.Now()
			if _, err := tree.KNNQuantFromStatsCtx(ctx, tree.Root(), q, inQueryK, rerank, &disk.Counter{}, &ss); err != nil {
				return err
			}
			took := time.Since(t0)
			descentSum += took
			descents = append(descents, us(took))
			nodes = append(nodes, float64(ss.NodesRead))
			rows = append(rows, float64(ss.CodesScanned+ss.ItemsScored)/inQueryK)
			fallbacks += float64(ss.RerankFallbacks)
			searches++
			total, _ := flatSweep(q, slab, inQueryK)
			flatSum += total
		}
		for i := 0; i+2 <= len(qs); i += 2 {
			accs := []disk.Accounter{&disk.Counter{}, &disk.Counter{}}
			sts := []*rstar.SearchStats{{}, {}}
			t0 := time.Now()
			if _, err := tree.KNNQuantBatchFromStatsCtx(ctx, tree.Root(), qs[i:i+2], []int{inQueryK, inQueryK}, rerank, accs, sts); err != nil {
				return err
			}
			batchSum += time.Since(t0)
			t0 = time.Now()
			for _, q := range qs[i : i+2] {
				if _, err := tree.KNNQuantFromStatsCtx(ctx, tree.Root(), q, inQueryK, rerank, &disk.Counter{}, nil); err != nil {
					return err
				}
			}
			serialSum += time.Since(t0)
		}
		if qz, err := store.Quantize(st); err == nil && len(qz.Codes()) > len(codes) {
			codes = qz.Codes()
		}
	}
	L["rstar.descent_us"] = median(descents)
	L["rstar.nodes_per_search"] = mean(nodes)
	L["rstar.rows_per_result"] = mean(rows)
	if flatSum > 0 {
		L["rstar.descent_over_flat"] = float64(descentSum) / float64(flatSum)
	}
	if serialSum > 0 {
		L["rstar.batch_over_serial"] = float64(batchSum) / float64(serialSum)
	}
	if searches > 0 {
		L["rstar.rerank_fallback_frac"] = fallbacks / searches
	}
	dim := d.sys.RFS().Tree().Dim()
	if len(codes) > 0 {
		q := codes[:dim]
		out := make([]int32, len(codes)/dim)
		for i := 0; i < kernelReps; i++ {
			t0 := time.Now()
			vec.Uint8SquaredDistsTo(q, codes, out)
			kernelSum += time.Since(t0)
			swept += float64(len(out))
		}
		L["vec.ns_per_row"] = float64(kernelSum) / swept
		L["vec.gb_per_s"] = swept * float64(dim) / float64(kernelSum)
		L["vec.multi_over_serial"] = multiOverSerialU8(codes, dim, widthOf(0))
	}
	L["store.table_mb"] = tableBytes / (1 << 20)
	L["loadgen.conns_opened"] = float64(d.cl.dials.Load())
	return nil
}

func (d *inDeployment) close() {
	d.cl.close()
	d.srv.close()
	d.dyn.Close()
}

var _ server.DynamicStore = (*timedStore)(nil)
