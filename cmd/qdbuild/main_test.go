package main

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qdcbir"
	"qdcbir/internal/rstar"
)

func discardLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// saveAndLoad writes sys as qdbuild's default mode does and reopens it
// through qdcbir.LoadFile — the qdbuild → qdquery/qdserve handoff. It
// returns the loaded system and the archive's size in bytes.
func saveAndLoad(t *testing.T, sys *qdcbir.System) (*qdcbir.System, int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.gob")
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := qdcbir.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return loaded, info.Size()
}

// knnIDs runs a global k-NN from a corpus image and returns the result IDs.
func knnIDs(t *testing.T, sys *qdcbir.System, example, k int) []int {
	t.Helper()
	res, err := sys.KNN(example, k)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	return ids
}

func TestBuildSystemRoundTrip(t *testing.T) {
	sys, err := buildSystem(1, 10, 300, 20, 0.2, false, "str", false, discardLog())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Len() == 0 || sys.RepresentativeCount() == 0 {
		t.Fatal("empty build")
	}
	loaded, _ := saveAndLoad(t, sys)
	if loaded.Len() != len(sys.Corpus().Infos) || len(loaded.Corpus().Infos) != loaded.Len() {
		t.Errorf("loaded %d images (%d infos) for %d infos", loaded.Len(), len(loaded.Corpus().Infos), len(sys.Corpus().Infos))
	}
	if loaded.RepresentativeCount() != sys.RepresentativeCount() {
		t.Errorf("%d representatives after reload, want %d", loaded.RepresentativeCount(), sys.RepresentativeCount())
	}
	if !reflect.DeepEqual(knnIDs(t, sys, 5, 15), knnIDs(t, loaded, 5, 15)) {
		t.Error("k-NN diverged across the archive round trip")
	}
}

func TestBuildSystemVectorMode(t *testing.T) {
	var log bytes.Buffer
	sys, err := buildSystem(2, 10, 400, 20, 0.1, true, "kmeans", false, slog.New(slog.NewTextHandler(&log, nil)))
	if err != nil {
		t.Fatal(err)
	}
	// Spec rounding distributes images per category; the total lands close
	// to but not exactly on the request.
	if n := sys.Len(); n < 350 || n > 400 {
		t.Errorf("images = %d, want ~400", n)
	}
	if !bytes.Contains(log.Bytes(), []byte("system built")) {
		t.Error("progress log missing")
	}
	loaded, _ := saveAndLoad(t, sys)
	if loaded.Len() != sys.Len() {
		t.Errorf("loaded %d images, want %d", loaded.Len(), sys.Len())
	}
}

// TestBuildSystemQuantized checks -quantize embeds an SQ8 quantizer that the
// loaded system adopts, and that quantized searches then match the exact
// path exactly.
func TestBuildSystemQuantized(t *testing.T) {
	exact, err := buildSystem(3, 8, 250, 20, 0.2, true, "str", false, discardLog())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := buildSystem(3, 8, 250, 20, 0.2, true, "str", true, discardLog())
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Quantized() {
		t.Fatal("quantized build fell back to exact scoring")
	}
	_, exactSize := saveAndLoad(t, exact)
	loaded, size := saveAndLoad(t, sys)
	if !loaded.Quantized() || !loaded.RFS().Tree().QuantizedScoring() {
		t.Fatal("loaded system did not adopt the embedded quantizer")
	}
	// The embedded codes table holds one byte per coordinate.
	if codes := int64(sys.Len() * sys.Corpus().Store().Dim()); size-exactSize < codes {
		t.Fatalf("quantized archive is %d bytes larger than the exact one, want >= %d of codes", size-exactSize, codes)
	}
	structure := loaded.RFS()
	tree := structure.Tree()
	for _, id := range []int{0, 100, loaded.Len() - 1} {
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
