package qdcbir

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qdcbir/internal/vec"
)

func dynTestConfig(mode string) DynamicConfig {
	cfg := DynamicConfig{
		Dim:                6,
		SealThreshold:      20,
		MaxSegments:        3,
		Seed:               9,
		NodeCapacity:       8,
		DisableAutoCompact: true,
	}
	switch mode {
	case "sq8":
		cfg.Quantized = true
		cfg.RerankFactor = 3
	case "f32":
		cfg.Float32 = true
	}
	return cfg
}

func dynRandVec(rng *rand.Rand, dim int) vec.Vector {
	v := make(vec.Vector, dim)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// populateDynamic inserts labeled rows (with occasional exact duplicates for
// tie stress) and deletes a fifth of them, leaving multiple sealed segments,
// a non-empty memtable, and tombstones in both.
func populateDynamic(t *testing.T, d *Dynamic) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	var ids []int
	var last vec.Vector
	for i := 0; i < 110; i++ {
		v := dynRandVec(rng, d.cfg.Dim)
		if last != nil && i%9 == 0 {
			copy(v, last)
		}
		last = v
		id, err := d.Insert(v, fmt.Sprintf("img-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:len(ids)/5] {
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
}

func sameDynamicAnswers(t *testing.T, label string, a, b *Dynamic) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 5; i++ {
		q := dynRandVec(rng, a.cfg.Dim)
		got, err := b.KNN(ctx, q, 17)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.KNN(ctx, q, 17)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: query %d: %d results, want %d", label, i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: query %d rank %d: got %+v, want %+v", label, i, j, got[j], want[j])
			}
		}
	}
	snap := a.db.Acquire()
	examples := snap.LiveIDs(nil)[:6]
	snap.Release()
	got, err := b.QueryByExamples(ctx, examples, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.QueryByExamples(ctx, examples, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	gi, wi := got.IDs(), want.IDs()
	if len(gi) != len(wi) {
		t.Fatalf("%s: finalize: %d ids, want %d", label, len(gi), len(wi))
	}
	for i := range wi {
		if gi[i] != wi[i] {
			t.Fatalf("%s: finalize rank %d: got %d, want %d", label, i, gi[i], wi[i])
		}
	}
}

func TestDynamicSaveLoadRoundTrip(t *testing.T) {
	for _, mode := range []string{"f64", "sq8", "f32"} {
		t.Run(mode, func(t *testing.T) {
			d, err := NewDynamic(dynTestConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			populateDynamic(t, d)
			before := d.Stats()
			if before.Segments < 2 || before.MemRows == 0 || before.Tombstones == 0 {
				t.Fatalf("fixture not exercising all layers: %+v", before)
			}

			var buf bytes.Buffer
			if err := d.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if head := archiveHeader(DynamicArchiveVersion); !bytes.HasPrefix(buf.Bytes(), head) {
				t.Fatalf("archive does not open with the version-%d header % x", DynamicArchiveVersion, head)
			}
			loaded, err := LoadDynamic(&buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()

			after := loaded.Stats()
			if after.Epoch != before.Epoch || after.Segments != before.Segments ||
				after.MemRows != before.MemRows || after.Tombstones != before.Tombstones ||
				after.Live != before.Live || after.NextID != before.NextID {
				t.Fatalf("stats diverged:\n before %+v\n after  %+v", before, after)
			}
			sameDynamicAnswers(t, mode, d, loaded)

			// Labels survive, and only for live images.
			snap := d.db.Acquire()
			live := snap.LiveIDs(nil)
			snap.Release()
			for _, id := range live {
				if got, want := loaded.LabelOf(id), d.LabelOf(id); got != want {
					t.Fatalf("label of %d: %q, want %q", id, got, want)
				}
			}

			// The restored engine keeps ingesting: new IDs continue past the
			// saved allocator, and the row is immediately queryable.
			id, err := loaded.Insert(dynRandVec(rand.New(rand.NewSource(5)), loaded.cfg.Dim), "post-load")
			if err != nil {
				t.Fatal(err)
			}
			if id != before.NextID {
				t.Fatalf("post-load insert got ID %d, want %d", id, before.NextID)
			}
			if loaded.LabelOf(id) != "post-load" {
				t.Fatal("post-load label missing")
			}
		})
	}
}

func TestLoadDynamicAdoptsStaticArchive(t *testing.T) {
	cfg := SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 400
	cfg.Categories = 10
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDynamic(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	st := d.Stats()
	if st.Segments != 1 || st.Live != sys.Len() || st.NextID != sys.Len() {
		t.Fatalf("adopted stats %+v for corpus of %d", st, sys.Len())
	}
	// The adopted segment shares the System's store and tree, so a KNN from a
	// corpus row must return exactly the monolithic system's answer.
	q := sys.Corpus().Store().At(7)
	want, err := sys.KNN(7, 12)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.KNN(context.Background(), q, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("adopted KNN rank %d: got %d, want %d", i, got[i].ID, want[i].ID)
		}
	}
	if d.LabelOf(7) != sys.SubconceptOf(7) {
		t.Fatalf("adopted label %q, want subconcept %q", d.LabelOf(7), sys.SubconceptOf(7))
	}
	// Ingest continues on top of the adopted corpus.
	if _, err := d.Insert(dynRandVec(rand.New(rand.NewSource(3)), d.cfg.Dim), "new"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(7); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Live != sys.Len() {
		t.Fatalf("live %d after one insert and one delete, want %d", d.Stats().Live, sys.Len())
	}
}

func TestStaticLoadRejectsDynamicArchive(t *testing.T) {
	d, err := NewDynamic(dynTestConfig("f64"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Insert(make(vec.Vector, d.cfg.Dim), "only"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "LoadDynamic") {
		t.Fatalf("static Load of a dynamic archive: err = %v, want LoadDynamic pointer", err)
	}
}
