package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"qdcbir"
	"qdcbir/internal/core"
	"qdcbir/internal/vec"
)

// TestDynamicQueryRejectsNegativeWeights: a negative weight would turn the
// dynamic engine's weighted scores into NaN, which cannot be encoded as
// JSON; the request must be refused up front with a 400.
func TestDynamicQueryRejectsNegativeWeights(t *testing.T) {
	ds, ts := newTestDynServer(t)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 40; i++ {
		v := make(vec.Vector, 5)
		for j := range v {
			v[j] = rng.Float64()
		}
		if _, err := ds.Insert(v, fmt.Sprintf("img-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	req := QueryRequest{Relevant: []int{0, 1, 2}, K: 5}
	if code, _ := dynPost(t, ts.URL+"/v1/query", req, &QueryResponse{}); code != http.StatusOK {
		t.Fatalf("unweighted query: %d", code)
	}
	req.Weights = []float64{-1, 1, 1, 1, 1}
	if code, _ := dynPost(t, ts.URL+"/v1/query", req, nil); code != http.StatusBadRequest {
		t.Fatalf("negative weight: status %d, want 400", code)
	}
}

// TestShardSessionImportRejectsNegativeWeights: a shard replica must not
// adopt an imported session whose weights the finalize would reject.
func TestShardSessionImportRejectsNegativeWeights(t *testing.T) {
	cfg := qdcbir.SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 300
	cfg.Categories = 6
	sys, err := qdcbir.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	archives, err := qdcbir.SliceShards(context.Background(), sys, 2)
	if err != nil {
		t.Fatalf("SliceShards: %v", err)
	}
	var buf bytes.Buffer
	if err := archives[0].Write(&buf); err != nil {
		t.Fatal(err)
	}
	rep, ssys, err := qdcbir.OpenShard(&buf)
	if err != nil {
		t.Fatalf("OpenShard: %v", err)
	}
	srv := New(ssys.Engine(), rep.Labeler())
	srv.SetShard(rep)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	weights := make([]float64, rep.Meta().Dim)
	for i := range weights {
		weights[i] = 1
	}
	state := func(w []float64) SessionExport {
		return SessionExport{Seed: 3, State: &core.SessionState{Version: core.SessionStateVersion, Weights: w}}
	}
	if code, _ := dynPost(t, ts.URL+"/v1/sessions/import", state(weights), nil); code != http.StatusOK {
		t.Fatalf("valid import: %d", code)
	}
	weights[0] = -1
	if code, _ := dynPost(t, ts.URL+"/v1/sessions/import", state(weights), nil); code != http.StatusBadRequest {
		t.Fatalf("negative weight import: status %d, want 400", code)
	}
}

// TestFinalizeInvalidKKeepsSession: a finalize with an invalid k is refused
// without consuming the hosted session, so a retry with a valid k succeeds.
func TestFinalizeInvalidKKeepsSession(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var sess SessionResponse
	postJSON(t, ts.URL+"/v1/sessions", map[string]int64{"seed": 9}, &sess)
	base := ts.URL + "/v1/sessions/" + sess.SessionID

	resp, err := http.Get(base + "/candidates")
	if err != nil {
		t.Fatal(err)
	}
	var cands struct {
		Candidates []CandidateJSON `json:"candidates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cands); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cands.Candidates) < 2 {
		t.Fatalf("%d candidates", len(cands.Candidates))
	}
	marks := []int{cands.Candidates[0].ID, cands.Candidates[1].ID}
	if r := postJSON(t, base+"/feedback", FeedbackRequest{Relevant: marks}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("feedback: %d", r.StatusCode)
	}
	if r := postJSON(t, base+"/finalize", map[string]int{"k": 0}, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=0 finalize: status %d, want 400", r.StatusCode)
	}
	var res QueryResponse
	if r := postJSON(t, base+"/finalize", map[string]int{"k": 10}, &res); r.StatusCode != http.StatusOK {
		t.Fatalf("k=10 finalize after k=0: status %d", r.StatusCode)
	}
	total := 0
	for _, g := range res.Groups {
		total += len(g.Images)
	}
	if total != 10 {
		t.Fatalf("finalize returned %d images, want 10", total)
	}
}
