package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/store"
)

func TestBuildArchiveAndRoundTrip(t *testing.T) {
	arch, err := buildArchive(1, 10, 300, 20, 0.2, false, "str", false, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.Infos) == 0 || arch.RFS == nil {
		t.Fatal("empty archive")
	}
	// Encode/decode through a real file, then reconstruct the structure —
	// the qdbuild → qdquery/qdserve handoff.
	path := filepath.Join(t.TempDir(), "db.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(arch); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var loaded Archive
	if err := gob.NewDecoder(g).Decode(&loaded); err != nil {
		t.Fatal(err)
	}
	structure, err := rfs.FromSnapshot(loaded.RFS)
	if err != nil {
		t.Fatal(err)
	}
	if structure.Len() != len(arch.Infos) {
		t.Errorf("loaded %d images for %d infos", structure.Len(), len(arch.Infos))
	}
	if structure.RepCount() == 0 {
		t.Error("no representatives after reload")
	}
}

func TestBuildArchiveVectorMode(t *testing.T) {
	var log bytes.Buffer
	arch, err := buildArchive(2, 10, 400, 20, 0.1, true, "kmeans", false, slog.New(slog.NewTextHandler(&log, nil)))
	if err != nil {
		t.Fatal(err)
	}
	// Spec rounding distributes images per category; the total lands close
	// to but not exactly on the request.
	if n := len(arch.Infos); n < 350 || n > 400 {
		t.Errorf("infos = %d, want ~400", n)
	}
	if !bytes.Contains(log.Bytes(), []byte("RFS structure")) {
		t.Error("progress log missing")
	}
}

// TestBuildArchiveQuantized checks -quantize embeds an SQ8 quantizer the
// reader side (qdquery/qdserve) can adopt into the reconstructed structure,
// and that quantized searches then match the exact path exactly.
func TestBuildArchiveQuantized(t *testing.T) {
	arch, err := buildArchive(3, 8, 250, 20, 0.2, true, "str", true, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if arch.Quant == nil {
		t.Fatal("quantized build embedded no quantizer")
	}
	if want := len(arch.Infos) * arch.Quant.Dim; len(arch.Quant.Codes) != want {
		t.Fatalf("codes table is %d bytes, want %d", len(arch.Quant.Codes), want)
	}
	// The reader-side handoff: reconstruct, adopt, and compare searches.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(arch); err != nil {
		t.Fatal(err)
	}
	var loaded Archive
	if err := gob.NewDecoder(&buf).Decode(&loaded); err != nil {
		t.Fatal(err)
	}
	structure, err := rfs.FromSnapshot(loaded.RFS)
	if err != nil {
		t.Fatal(err)
	}
	qz, err := store.FromParts(*loaded.Quant)
	if err != nil {
		t.Fatal(err)
	}
	if err := structure.AdoptQuantized(qz); err != nil {
		t.Fatal(err)
	}
	tree := structure.Tree()
	for _, id := range []int{0, 100, len(arch.Infos) - 1} {
		q := structure.Point(rstar.ItemID(id))
		exact := tree.KNN(q, 10, nil)
		quantOut, err := tree.KNNSearch(context.Background(), tree.Root(), []rstar.Query{{Point: q, K: 10}}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		quant := quantOut[0]
		if len(exact) != len(quant) {
			t.Fatalf("result sizes differ: %d vs %d", len(exact), len(quant))
		}
		for i := range exact {
			if exact[i].ID != quant[i].ID || exact[i].Dist != quant[i].Dist {
				t.Fatalf("id %d rank %d: exact (%d, %v) vs quant (%d, %v)",
					id, i, exact[i].ID, exact[i].Dist, quant[i].ID, quant[i].Dist)
			}
		}
	}
}
