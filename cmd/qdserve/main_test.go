package main

import (
	"net/http/httptest"
	"path/filepath"
	"testing"

	"qdcbir"
	"qdcbir/internal/server"
)

func TestLoadInMemoryAndServe(t *testing.T) {
	ld, err := load("", 400, 1, true, 0, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, label := ld.eng, ld.label
	if eng.RFS().Len() == 0 {
		t.Fatal("empty engine")
	}
	if len(ld.rasters) != eng.RFS().Len() {
		t.Fatalf("%d rasters for %d images", len(ld.rasters), eng.RFS().Len())
	}
	if label(0) == "" {
		t.Error("labeler returned empty for image 0")
	}
	if label(-1) != "" {
		t.Error("labeler should be empty out of range")
	}
	// The loaded engine is servable end to end.
	srv := server.New(eng, label)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := server.Dial(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Images() != eng.RFS().Len() {
		t.Errorf("client sees %d images", c.Images())
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := load("/nonexistent.gob", 0, 1, false, 0, false, false, nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadQdbuildArchive serves the file qdbuild writes by default — a
// qdcbir.Build system saved with SaveFile — and checks the reported archive
// version, statically and adopted into the dynamic engine.
func TestLoadQdbuildArchive(t *testing.T) {
	sys, err := qdcbir.Build(qdcbir.Config{
		Seed: 4, Categories: 8, Images: 200, VectorMode: true,
		NodeCapacity: 20, RepFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.gob")
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ld, err := load(path, 0, 1, false, 0, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ld.version != 3 {
		t.Errorf("archive version %d, want 3", ld.version)
	}
	if ld.eng == nil || ld.eng.RFS().Len() != sys.Len() || ld.label(0) != sys.SubconceptOf(0) {
		t.Fatal("static load does not serve the archived corpus")
	}
	if ld.precision != "float64" || ld.quantized {
		t.Errorf("precision %q quantized %v, want float64 exact", ld.precision, ld.quantized)
	}
	dyn, err := load(path, 0, 1, false, 0, false, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dyn.dyn.Close()
	if dyn.version != 3 || dyn.dyn.Stats().Live != sys.Len() {
		t.Errorf("dynamic load: version %d, %d live, want 3 and %d", dyn.version, dyn.dyn.Stats().Live, sys.Len())
	}
}
