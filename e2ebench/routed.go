package main

import (
	"bytes"
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
	"qdcbir/internal/router"
	"qdcbir/internal/rstar"
	"qdcbir/internal/server"
	"qdcbir/internal/shard"
	"qdcbir/internal/source"
	"qdcbir/internal/vec"
)

// routed-embed: a router over three in-process shard replicas of a weakly
// clustered 20,000 x 512 float32 embedding corpus, driven open-loop with a
// mix of raw-vector k-NN lookups and example-panel queries.

const (
	reRows      = 20000
	reDim       = 512
	reCats      = 40   // clusters; each holds two subconcepts
	reSpread    = 0.35 // cluster-centre spread against unit row noise: weak clustering
	reShards    = 3
	rePool      = 256 // distinct k-NN query vectors
	rePanels    = 128 // distinct query panels
	rePanelSize = 4
	reKNN       = 10
	reQueryK    = 50
	reKNNShare  = 0.65
	reNominal   = 40.0  // req/s offered in the nominal phase
	reTailPct   = 90    // tail percentile: about 300 k-NN and 170 query samples per run
	reLimitMS   = 250.0 // read tail limit of the capacity ladder
	reChecked   = 96    // distinct k-NN responses kept for the correctness gate
	reLegsKept  = 600   // shard legs recorded for the traced replay
)

// reLadder is the capacity ladder's offered rates, req/s.
var reLadder = []float64{60, 70, 80, 90, 100, 110, 120, 135, 150, 170, 190}

type reDeployment struct {
	sys      *qdcbir.System // the unsharded reference, built after the load phases
	replicas []*shard.Replica
	stores   []float64 // each replica's scan-table bytes
	servers  []*server.Server
	hs       []*httpServer
	rt       *router.Router
	stopRT   context.CancelFunc
	front    *httpServer
	cl       *client
	tr       *Tracer
	cats     []string // category of each row
	pool     []vec.Vector
	zipf     *rand.Zipf
	panels   [][]int
	seed     int64
	urlShard map[string]int

	mu   sync.Mutex
	kept map[int][]byte // first response per distinct k-NN pool vector
	legs []reLeg
}

// reLeg is one recorded shard-search leg.
type reLeg struct {
	shard int
	req   server.ShardSearchRequest
	key   string // scatter key: the legs of one fan-out share it
}

func setupRouted(ctx context.Context, seed int64, tr *Tracer) (Deployment, error) {
	rng := rand.New(rand.NewSource(seed*13 + 1))
	batch, cats := embedCorpus(rng)
	sys, err := embedSystem(ctx, seed, batch)
	if err != nil {
		return nil, err
	}
	archives, err := qdcbir.SliceShards(ctx, sys, reShards)
	if err != nil {
		return nil, err
	}
	d := &reDeployment{tr: tr, cats: cats, seed: seed, kept: map[int][]byte{}, urlShard: map[string]int{}}
	var replicas []router.ReplicaConfig
	for i, a := range archives {
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			d.close()
			return nil, err
		}
		rep, rsys, err := qdcbir.OpenShard(&buf)
		if err != nil {
			d.close()
			return nil, err
		}
		rsys = rsys.WithObserver(obs.New(obs.NewRegistry()))
		srv := server.New(rsys.Engine(), rep.Labeler())
		srv.SetShard(rep)
		m := rep.Meta()
		srv.SetArchiveInfo(m.ArchiveVersion, m.Precision, m.Quantized)
		srv.SetScheduler(server.SchedConfig{MaxConcurrent: 8, QueueBound: 64, Window: 200 * time.Microsecond})
		hs, err := serve(tr.middleware("replica", endpointOf, srv.Handler()))
		if err != nil {
			d.close()
			return nil, err
		}
		st := rsys.Corpus().Store()
		d.replicas = append(d.replicas, rep)
		d.stores = append(d.stores, float64(len(st.Backing())*8+len(st.Backing32())*4))
		d.servers = append(d.servers, srv)
		d.hs = append(d.hs, hs)
		d.urlShard[hs.url] = i
		replicas = append(replicas, router.ReplicaConfig{Shard: i, URL: hs.url})
	}
	rcfg := router.Config{Replicas: replicas}
	if tr != nil {
		rcfg.Client = &http.Client{Transport: &legTripper{t: tr, base: http.DefaultTransport, record: d.recordLeg}}
	}
	rt, err := router.New(rcfg)
	if err != nil {
		d.close()
		return nil, err
	}
	if err := rt.VerifyFleet(ctx); err != nil {
		d.close()
		return nil, err
	}
	rctx, cancel := context.WithCancel(context.Background())
	rt.Start(rctx)
	d.rt, d.stopRT = rt, cancel
	d.front, err = serve(tr.middleware("router", endpointOf, rt.Handler()))
	if err != nil {
		d.close()
		return nil, err
	}
	d.cl = newClient(d.front.url, conns)
	if err := waitHealthy(ctx, d.cl); err != nil {
		d.close()
		return nil, err
	}
	d.pool, d.panels = embedRequests(rng, batch, cats)
	d.zipf = rand.NewZipf(rng, 1.2, 1, rePool-1)
	return d, nil
}

// embedSystem builds the unsharded float32 system over the rows.
func embedSystem(ctx context.Context, seed int64, batch *source.Batch) (*qdcbir.System, error) {
	cfg := qdcbir.DefaultConfig()
	cfg.Seed = seed
	cfg.Float32 = true
	return qdcbir.BuildFromSourceContext(ctx, cfg, batchSource{batch})
}

// reference rebuilds the unsharded system from the seed. The load phases run
// without it, so the measured heap holds only what the deployment serves.
func (d *reDeployment) reference(ctx context.Context) (*qdcbir.System, error) {
	if d.sys == nil {
		batch, _ := embedCorpus(rand.New(rand.NewSource(d.seed*13 + 1)))
		sys, err := embedSystem(ctx, d.seed, batch)
		if err != nil {
			return nil, err
		}
		d.sys = sys
	}
	return d.sys, nil
}

// embedCorpus draws the weakly clustered float32 rows: reCats cluster
// centres, two subconcept offsets per cluster, and unit Gaussian noise that
// dwarfs both, so the R*-tree's pruning rarely pays.
func embedCorpus(rng *rand.Rand) (*source.Batch, []string) {
	centre := func(scale float64) []float64 {
		c := make([]float64, reDim)
		for j := range c {
			c[j] = rng.NormFloat64() * scale
		}
		return c
	}
	var cents [reCats][2][]float64
	for c := range cents {
		base := centre(reSpread)
		for s := range cents[c] {
			off := centre(reSpread / 2)
			for j := range off {
				off[j] += base[j]
			}
			cents[c][s] = off
		}
	}
	b := &source.Batch{Dim: reDim, Data32: make([]float32, reRows*reDim), Labels: make([]string, reRows)}
	cats := make([]string, reRows)
	for i := 0; i < reRows; i++ {
		c, s := rng.Intn(reCats), rng.Intn(2)
		cats[i] = fmt.Sprintf("cluster-%02d", c)
		b.Labels[i] = fmt.Sprintf("%s/sub-%d", cats[i], s)
		row := b.Data32[i*reDim : (i+1)*reDim]
		for j := range row {
			row[j] = float32(cents[c][s][j] + rng.NormFloat64())
		}
	}
	return b, cats
}

// embedRequests draws the k-NN query pool (corpus rows plus noise) and the
// query panels (examples of one cluster).
func embedRequests(rng *rand.Rand, b *source.Batch, cats []string) ([]vec.Vector, [][]int) {
	pool := make([]vec.Vector, rePool)
	for i := range pool {
		row := b.Data32[rng.Intn(reRows)*reDim:]
		q := make(vec.Vector, reDim)
		for j := range q {
			q[j] = float64(row[j]) + rng.NormFloat64()*0.3
		}
		pool[i] = q
	}
	byCat := map[string][]int{}
	for i, c := range cats {
		byCat[c] = append(byCat[c], i)
	}
	panels := make([][]int, rePanels)
	for i := range panels {
		members := byCat[fmt.Sprintf("cluster-%02d", rng.Intn(reCats))]
		for j := 0; j < rePanelSize; j++ {
			panels[i] = append(panels[i], members[rng.Intn(len(members))])
		}
	}
	return pool, panels
}

type batchSource struct{ b *source.Batch }

func (batchSource) Format() string                    { return "e2ebench" }
func (s batchSource) Vectors() (*source.Batch, error) { return s.b, nil }

// draw picks one request of the mix: a popular pool vector or a panel.
func (d *reDeployment) draw(rng *rand.Rand) (int, int) {
	if rng.Float64() < reKNNShare {
		return kindKNN, int(d.zipf.Uint64())
	}
	return kindQuery, rng.Intn(rePanels)
}

func (d *reDeployment) body(it Item) (string, []byte) {
	if it.Kind == kindKNN {
		raw, _ := json.Marshal(router.KNNRequest{Query: d.pool[it.Arg], K: reKNN})
		return "/v1/knn", raw
	}
	raw, _ := json.Marshal(server.QueryRequest{Relevant: d.panels[it.Arg], K: reQueryK})
	return "/v1/query", raw
}

// send issues one scheduled request and keeps the first answer to each
// distinct k-NN request for the correctness gate.
func (d *reDeployment) send(ctx context.Context, it Item, reqID string) error {
	_, err := d.fetch(ctx, it, reqID)
	return err
}

// fetch is send returning the response body.
func (d *reDeployment) fetch(ctx context.Context, it Item, reqID string) ([]byte, error) {
	path, body := d.body(it)
	raw, err := d.cl.do(ctx, http.MethodPost, path, body, reqID)
	if err != nil {
		return nil, err
	}
	if it.Kind == kindKNN {
		d.mu.Lock()
		if _, ok := d.kept[it.Arg]; !ok && len(d.kept) < reChecked {
			d.kept[it.Arg] = raw
		}
		d.mu.Unlock()
	}
	return raw, nil
}

// recordLeg keeps shard-search legs for the traced replay.
func (d *reDeployment) recordLeg(url string, body []byte, key string) {
	if !strings.HasSuffix(url, "/v1/shard/search") {
		return
	}
	var req server.ShardSearchRequest
	if json.Unmarshal(body, &req) != nil {
		return
	}
	sh := -1
	for base, i := range d.urlShard {
		if strings.HasPrefix(url, base+"/") {
			sh = i
		}
	}
	d.mu.Lock()
	if len(d.legs) < reLegsKept {
		d.legs = append(d.legs, reLeg{shard: sh, req: req, key: key})
	}
	d.mu.Unlock()
}

func (d *reDeployment) isRead(int) bool { return true }

// nominal runs the fixed-rate phase and returns its outcome and schedule.
func (d *reDeployment) nominal(ctx context.Context, seed int64, dur time.Duration, tag string) ([]Item, Outcome) {
	sched := schedule(rand.New(rand.NewSource(seed)), reNominal, dur, d.draw)
	out := runOpen(ctx, sched, conns, dur/2, func(ctx context.Context, i int) error {
		return d.send(ctx, sched[i], fmt.Sprintf("%s%d", tag, i))
	})
	return sched, out
}

func kindIs(k int) func(int) bool { return func(x int) bool { return x == k } }

func (d *reDeployment) measure(ctx context.Context, r *Run) error {
	if r.Traced {
		_, plain := d.nominal(ctx, r.Seed*31+1, r.duration(0.3), "u")
		d.tr.on.Store(true)
		sfBefore := d.rt.Observer().Registry().Counter("qd_router_singleflight_total", "").Value()
		sched, traced := d.nominal(ctx, r.Seed*31+2, r.duration(0.3), "t")
		d.tr.on.Store(false)
		sf := d.rt.Observer().Registry().Counter("qd_router_singleflight_total", "").Value() - sfBefore
		knn := 0
		for _, it := range sched {
			if it.Kind == kindKNN {
				knn++
			}
		}
		if knn > 0 {
			r.Layer["router.singleflight_frac"] = float64(sf) / float64(knn)
		}
		for _, out := range []Outcome{plain, traced} {
			lat, failed := latencies(out, d.isRead)
			r.Attempted += len(lat)
			r.Failed += failed
		}
		a, _ := latencies(plain, kindIs(kindKNN))
		b, _ := latencies(traced, kindIs(kindKNN))
		r.Layer["trace.overhead_frac"] = (median(b) - median(a)) / median(a)
		r.Layer["loadgen.late_ms_p99"] = summarizeAt(append(lateness(plain), lateness(traced)...), 99).Tail
		r.Layer["loadgen.backlog"] = float64(traced.Backlog)
		return nil
	}
	_, out := d.nominal(ctx, r.Seed*31+1, r.duration(0.6), "n")
	knn, f1 := latencies(out, kindIs(kindKNN))
	qry, f2 := latencies(out, kindIs(kindQuery))
	r.Attempted += len(knn) + len(qry)
	r.Failed += f1 + f2
	ks, qs := summarizeAt(knn, reTailPct), summarizeAt(qry, reTailPct)
	r.noteSummary("knn (step)", ks)
	r.noteSummary("query (query)", qs)
	r.E2E["step_p50_ms"] = ks.P50
	r.E2E["query_p50_ms"] = qs.P50
	late := summarizeAt(lateness(out), 99)
	r.note("loadgen            late p%g=%.3f ms, final backlog %d, %d connections opened", late.TailPct, late.Tail, out.Backlog, d.cl.dials.Load())
	rungs := climb(ctx, r.Seed*31+7, reLadder, r.duration(0.08), reLimitMS, reTailPct, d.draw, d.isRead, d.send)
	rate, capped := maxRate(rungs, reLimitMS)
	r.E2E["capacity_per_s"] = rate
	r.note("ladder             %s -> max_qps %.1f (capped %v)", formatRungs(rungs), rate, capped)
	return nil
}

func formatRungs(rungs []Rung) string {
	parts := make([]string, len(rungs))
	for i, g := range rungs {
		parts[i] = fmt.Sprintf("%.0f:%.1fms/b%d/f%d", g.Rate, g.Tail, g.Backlog, g.Failed)
	}
	return strings.Join(parts, " ")
}

// expectKNN is the unsharded float32 system's answer to a k-NN request.
func (d *reDeployment) expectKNN(ctx context.Context, q vec.Vector, k int) ([]byte, error) {
	sys, err := d.reference(ctx)
	if err != nil {
		return nil, err
	}
	tree := sys.RFS().Tree()
	ns, err := tree.KNNF32FromStatsCtx(ctx, tree.Root(), q, k, nil, nil)
	if err != nil {
		return nil, err
	}
	resp := router.KNNResponse{Neighbors: make([]server.NeighborJSON, len(ns))}
	for i, n := range ns {
		resp.Neighbors[i] = server.NeighborJSON{ID: int(n.ID), Dist: n.Dist}
	}
	return json.Marshal(resp)
}

// expectQuery is the unsharded system's answer to a query panel, in the
// router's response shape (the router reports no page reads).
func (d *reDeployment) expectQuery(ctx context.Context, ids []int, k int) ([]byte, error) {
	rel := make([]rstar.ItemID, len(ids))
	for i, id := range ids {
		rel[i] = rstar.ItemID(id)
	}
	sys, err := d.reference(ctx)
	if err != nil {
		return nil, err
	}
	res, st, err := sys.Engine().QueryByExamplesCtx(ctx, rel, k, nil, nil)
	if err != nil {
		return nil, err
	}
	want := wireResult(res, st, sys.SubconceptOf)
	want.Stats.FinalReads = 0
	return json.Marshal(want)
}

func sameKNN(a, b []byte) bool {
	var x, y router.KNNResponse
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	ra, _ := json.Marshal(x)
	rb, _ := json.Marshal(y)
	return string(ra) == string(rb)
}

func (d *reDeployment) check(ctx context.Context, r *Run) error {
	// Every panel of the seeded pool, sent one at a time: its precision
	// repeats exactly for a seed, and each answer must match the unsharded
	// float32 reference bit for bit.
	var precs []float64
	for i := range d.panels {
		r.Attempted++
		raw, err := d.fetch(ctx, Item{Kind: kindQuery, Arg: i}, "")
		if err != nil {
			r.Failed++
			continue
		}
		want, err := d.expectQuery(ctx, d.panels[i], reQueryK)
		if err != nil {
			return err
		}
		if !sameJSON(want, raw) {
			r.mismatch("query panel[%d] differs from the unsharded reference", i)
		}
		var resp server.QueryResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return err
		}
		cat := d.cats[d.panels[i][0]]
		hits, total := 0, 0
		for _, g := range resp.Groups {
			for _, im := range g.Images {
				total++
				if d.cats[im.ID] == cat {
					hits++
				}
			}
		}
		if total > 0 {
			precs = append(precs, float64(hits)/float64(total))
		}
	}
	r.E2E["precision"] = mean(precs)
	// The k-NN answers kept from the load phase.
	d.mu.Lock()
	keys := make([]int, 0, len(d.kept))
	for k := range d.kept {
		keys = append(keys, k)
	}
	d.mu.Unlock()
	sort.Ints(keys)
	for _, key := range keys {
		r.Attempted++
		want, err := d.expectKNN(ctx, d.pool[key], reKNN)
		if err != nil {
			return err
		}
		if !sameKNN(want, d.kept[key]) {
			r.mismatch("knn pool[%d] differs from the unsharded reference", key)
		}
	}
	r.note("correctness        %d panels and %d k-NN answers compared with the unsharded reference", len(d.panels), len(keys))
	return nil
}

func (d *reDeployment) replay(ctx context.Context, r *Run) error {
	spans := r.Tracer.snapshot()
	groups := byName(spans)
	var routerSpans, legSpans, replicaSearch []Span
	for name, ss := range groups {
		switch {
		case name == "router:/v1/knn" || name == "router:/v1/query":
			routerSpans = append(routerSpans, ss...)
		case strings.HasPrefix(name, "leg:"):
			legSpans = append(legSpans, ss...)
		case name == "replica:/v1/shard/search":
			replicaSearch = append(replicaSearch, ss...)
		}
	}
	var replicaBytes, replicaN float64
	for name, ss := range groups {
		if strings.HasPrefix(name, "replica:") {
			for _, s := range ss {
				replicaBytes += float64(s.Bytes)
				replicaN++
			}
		}
	}
	L := r.Layer
	legsOf := map[string][]Span{}
	var legBytes float64
	for _, s := range legSpans {
		legsOf[s.Req] = append(legsOf[s.Req], s)
		legBytes += float64(s.Bytes)
	}
	var self []float64
	for _, s := range routerSpans {
		self = append(self, ms(selfTime(s, legsOf[s.Req])))
	}
	if n := float64(len(routerSpans)); n > 0 {
		L["router.legs_per_req"] = float64(len(legSpans)) / n
		L["router.wire_kb_per_req"] = legBytes / n / 1024
	}
	L["router.leg_ms"] = median(durationsMS(legSpans))
	L["router.self_ms"] = median(self)
	L["server.query_ms"] = median(durationsMS(replicaSearch))
	if replicaN > 0 {
		L["server.resp_kb"] = replicaBytes / replicaN / 1024
	}
	// The scheduler's counters cover the replicas' whole life.
	var sheds, reqs, width, batches float64
	for _, srv := range d.servers {
		reg := srv.Observer().Registry()
		sheds += float64(reg.Counter("qd_sched_shed_total", "").Value())
		reqs += float64(reg.Counter("qd_http_requests_total", "").Value())
		h := reg.Histogram("qd_sched_coalesce_width", "", nil)
		width += h.Sum()
		batches += float64(h.Count())
	}
	if reqs > 0 {
		L["server.shed_frac"] = sheds / reqs
	}
	coalesce := 1.0
	if batches > 0 {
		coalesce = width / batches
	}
	L["server.coalesce_width"] = coalesce
	w := widthOf(coalesce)

	// Shard layer: the recorded legs replayed through each replica, merged
	// per fan-out, and re-run as same-node batches of the observed width.
	d.mu.Lock()
	legs := append([]reLeg(nil), d.legs...)
	d.mu.Unlock()
	var search []float64
	lists := map[string][][]shard.Neighbor{}
	var order []string
	for _, lg := range legs {
		if lg.shard < 0 {
			continue
		}
		t0 := time.Now()
		ns, err := d.replicas[lg.shard].SearchNode(ctx, lg.req.NodeID, vec.Vector(lg.req.Query), lg.req.Weights, lg.req.K)
		if err != nil {
			return err
		}
		search = append(search, us(time.Since(t0)))
		if _, ok := lists[lg.key]; !ok {
			order = append(order, lg.key)
		}
		lists[lg.key] = append(lists[lg.key], ns)
	}
	L["shard.search_us"] = median(search)
	if n := len(search); n > 0 && len(replicaSearch) > 0 {
		handler := median(durationsMS(replicaSearch)) * 1000
		L["server.shell_share"] = (handler - median(search)) / handler
	}
	var merges, stragglers []float64
	for _, key := range order {
		ls := lists[key]
		if len(ls) < 2 {
			continue
		}
		k := 0
		for _, l := range ls {
			if len(l) > k {
				k = len(l)
			}
		}
		t0 := time.Now()
		shard.MergeNeighbors(ls, k)
		merges = append(merges, us(time.Since(t0)))
	}
	L["shard.merge_us"] = median(merges)
	// Straggler wait per fan-out: slowest leg minus the median leg.
	fan := map[string][]float64{}
	for _, s := range legSpans {
		if s.Name == "leg:/v1/shard/search" {
			fan[s.Key] = append(fan[s.Key], ms(s.dur()))
		}
	}
	for _, ds := range fan {
		if len(ds) >= 2 {
			sort.Float64s(ds)
			stragglers = append(stragglers, ds[len(ds)-1]-median(ds))
		}
	}
	L["router.straggler_ms"] = median(stragglers)
	var batchSum, serialSum time.Duration
	byNode := map[[2]uint64][]reLeg{}
	var nodeOrder [][2]uint64
	for _, lg := range legs {
		if lg.shard < 0 || lg.req.Weights != nil {
			continue
		}
		key := [2]uint64{uint64(lg.shard), lg.req.NodeID}
		if _, ok := byNode[key]; !ok {
			nodeOrder = append(nodeOrder, key)
		}
		byNode[key] = append(byNode[key], lg)
	}
	for _, key := range nodeOrder {
		ls := byNode[key]
		for i := 0; i+w <= len(ls); i += w {
			qs := make([]vec.Vector, w)
			ks := make([]int, w)
			for j := 0; j < w; j++ {
				qs[j], ks[j] = ls[i+j].req.Query, ls[i+j].req.K
			}
			rep := d.replicas[key[0]]
			t0 := time.Now()
			if _, err := rep.SearchNodeBatch(ctx, key[1], qs, ks); err != nil {
				return err
			}
			batchSum += time.Since(t0)
			t0 = time.Now()
			for j := range qs {
				if _, err := rep.SearchNode(ctx, key[1], qs[j], nil, ks[j]); err != nil {
					return err
				}
			}
			serialSum += time.Since(t0)
		}
	}
	if serialSum > 0 {
		L["shard.batch_over_serial"] = float64(batchSum) / float64(serialSum)
	}

	// rstar and vec: the k-NN pool through the unsharded float32 tree, a
	// flat sweep of every row, and the kernels at the observed width.
	sys, err := d.reference(ctx)
	if err != nil {
		return err
	}
	tree := sys.RFS().Tree()
	slab := sys.Corpus().Store().Backing32()
	var descents, nodes, rows []float64
	var descentSum, flatSum, kernelSum time.Duration
	nq := 48
	for i := 0; i < nq; i++ {
		q := d.pool[i]
		var st rstar.SearchStats
		t0 := time.Now()
		if _, err := tree.KNNF32FromStatsCtx(ctx, tree.Root(), q, reKNN, nil, &st); err != nil {
			return err
		}
		took := time.Since(t0)
		descentSum += took
		descents = append(descents, us(took))
		nodes = append(nodes, float64(st.NodesRead))
		rows = append(rows, float64(st.ItemsScored)/reKNN)
		if i < 12 {
			q32 := vec.Narrow32(q, nil)
			total, kernel := flatSweep32(q32, slab, reKNN)
			flatSum += total * time.Duration(nq) / 12
			kernelSum += kernel
		}
	}
	L["rstar.descent_us"] = median(descents)
	L["rstar.nodes_per_search"] = mean(nodes)
	L["rstar.rows_per_result"] = mean(rows)
	if flatSum > 0 {
		L["rstar.descent_over_flat"] = float64(descentSum) / float64(flatSum)
	}
	var bsum, ssum time.Duration
	for i := 0; i+w <= 24; i += w {
		qs := d.pool[i : i+w]
		ks := make([]int, w)
		for j := range ks {
			ks[j] = reKNN
		}
		accs := make([]disk.Accounter, w)
		sts := make([]*rstar.SearchStats, w)
		for j := range accs {
			accs[j], sts[j] = &disk.Counter{}, &rstar.SearchStats{}
		}
		t0 := time.Now()
		if _, err := tree.KNNF32BatchFromStatsCtx(ctx, tree.Root(), qs, ks, accs, sts); err != nil {
			return err
		}
		bsum += time.Since(t0)
		t0 = time.Now()
		for _, q := range qs {
			if _, err := tree.KNNF32FromStatsCtx(ctx, tree.Root(), q, reKNN, nil, nil); err != nil {
				return err
			}
		}
		ssum += time.Since(t0)
	}
	if ssum > 0 {
		L["rstar.batch_over_serial"] = float64(bsum) / float64(ssum)
	}
	swept := float64(12 * reRows)
	L["vec.ns_per_row"] = float64(kernelSum) / swept
	L["vec.gb_per_s"] = swept * reDim * 4 / float64(kernelSum)
	L["vec.multi_over_serial"] = multiOverSerial32(slab, reDim, w)
	var table float64
	for _, b := range d.stores {
		table += b
	}
	L["store.table_mb"] = table / (1 << 20)
	L["loadgen.conns_opened"] = float64(d.cl.dials.Load())
	return nil
}

func (d *reDeployment) close() {
	if d.cl != nil {
		d.cl.close()
	}
	if d.front != nil {
		d.front.close()
	}
	if d.stopRT != nil {
		d.stopRT()
	}
	for _, hs := range d.hs {
		hs.close()
	}
}
