package qdcbir

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qdcbir/internal/dataset"
	"qdcbir/internal/rfs"
	"qdcbir/internal/store"
)

// quantSystem builds a small quantized vector-mode system for archive tests.
func quantSystem(t *testing.T) *System {
	t.Helper()
	cfg := SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 400
	cfg.Quantized = true
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Quantized() {
		t.Fatal("quantized build fell back to exact scoring")
	}
	return sys
}

// knnIDs runs a global k-NN and returns the result IDs.
func knnIDs(t *testing.T, sys *System, example, k int) []int {
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

// TestArchiveV2QuantizedRoundTrip pins the v2 quantizer sidecar: a quantized
// system's archive carries its trained quantizer, and the loaded system
// adopts it (identical parameters, no retraining) and retrieves identically.
func TestArchiveV2QuantizedRoundTrip(t *testing.T) {
	sys := quantSystem(t)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Quantized() {
		t.Fatal("loaded system lost quantization")
	}
	if !loaded.Config().Quantized {
		t.Fatal("loaded config lost the Quantized flag")
	}
	if !reflect.DeepEqual(sys.quant.Parts(), loaded.quant.Parts()) {
		t.Fatal("loaded quantizer differs from the saved one")
	}
	for _, example := range []int{0, 7, 123} {
		a, b := knnIDs(t, sys, example, 15), knnIDs(t, loaded, example, 15)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("k-NN diverged across the round trip for image %d: %v vs %v", example, a, b)
		}
	}
}

// TestArchiveV1LoadCompat writes a version-1 archive (the pre-quantization
// format: v1 header, quantizer-free payload) and checks this build still
// loads it and answers identically.
func TestArchiveV1LoadCompat(t *testing.T) {
	cfg := SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 400
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.Write(archiveHeader(archiveVersionV1)); err != nil {
		t.Fatal(err)
	}
	body := sys.archiveBody()
	if err := gob.NewEncoder(&buf).Encode(&body); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v1 archive rejected: %v", err)
	}
	if loaded.Quantized() {
		t.Fatal("v1 archive of an exact system loaded quantized")
	}
	if !reflect.DeepEqual(knnIDs(t, sys, 9, 20), knnIDs(t, loaded, 9, 20)) {
		t.Fatal("k-NN diverged across the v1 round trip")
	}
}

// TestArchiveV1QuantizedConfigRetrains covers a v1 archive whose saved
// config asks for quantization (no persisted quantizer existed in v1): the
// load retrains one, so the system comes back quantized anyway.
func TestArchiveV1QuantizedConfigRetrains(t *testing.T) {
	sys := quantSystem(t)
	var buf bytes.Buffer
	if _, err := buf.Write(archiveHeader(archiveVersionV1)); err != nil {
		t.Fatal(err)
	}
	body := sys.archiveBody()
	if err := gob.NewEncoder(&buf).Encode(&body); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v1 archive rejected: %v", err)
	}
	if !loaded.Quantized() {
		t.Fatal("quantized config did not retrain on v1 load")
	}
	if !reflect.DeepEqual(sys.quant.Parts(), loaded.quant.Parts()) {
		t.Fatal("retrained quantizer differs from the original training")
	}
	if !reflect.DeepEqual(knnIDs(t, sys, 42, 15), knnIDs(t, loaded, 42, 15)) {
		t.Fatal("k-NN diverged across the v1 round trip")
	}
}

// TestArchiveV0LoadCompat writes a legacy bare-gob archive and checks this
// build still loads it and answers identically.
func TestArchiveV0LoadCompat(t *testing.T) {
	cfg := SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 400
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	legacy := archive{
		Cfg:            sys.cfg,
		Infos:          sys.corpus.Infos,
		RFS:            sys.rfs.Snapshot(),
		ChannelVectors: sys.corpus.ChannelVectors,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v0 archive rejected: %v", err)
	}
	if !reflect.DeepEqual(knnIDs(t, sys, 3, 20), knnIDs(t, loaded, 3, 20)) {
		t.Fatal("k-NN diverged across the v0 round trip")
	}
}

// qdbuildArchive is the bare-gob format qdbuild wrote before it switched to
// System.SaveFile: ground truth, the RFS snapshot (which carries the
// vectors), and the SQ8 quantizer of a -quantize build — no Config.
type qdbuildArchive struct {
	Infos []dataset.Info
	RFS   *rfs.Snapshot
	Quant *store.QuantParts
}

// encodeQdbuildArchive writes sys in the former qdbuild format, embedding
// its quantizer when it has one.
func encodeQdbuildArchive(t *testing.T, sys *System) []byte {
	t.Helper()
	a := qdbuildArchive{Infos: sys.corpus.Infos, RFS: sys.rfs.Snapshot()}
	if sys.quant != nil {
		parts := sys.quant.Parts()
		a.Quant = &parts
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sessionTranscript drives a scripted two-round feedback session and
// returns every display followed by the finalized result.
func sessionTranscript(t *testing.T, sys *System) []any {
	t.Helper()
	sess := sys.NewSession(11)
	var out []any
	for round := 0; round < 2; round++ {
		display := sess.Candidates()
		out = append(out, display)
		var marks []int
		for _, c := range display[:3] {
			marks = append(marks, c.ID)
		}
		if err := sess.Feedback(marks); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Finalize(20)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, res)
}

// TestArchiveQdbuildLoadCompat opens files written by qdbuild's former
// bare-gob writer: Load answers exactly as Build does, an embedded quantizer
// is adopted (and SQ8 answers equal exact ones), and LoadDynamic adopts the
// file as a single sealed segment.
func TestArchiveQdbuildLoadCompat(t *testing.T) {
	cfg := SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 400
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeQdbuildArchive(t, sys)

	loaded, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("qdbuild archive rejected: %v", err)
	}
	if loaded.Quantized() {
		t.Fatal("archive without a quantizer loaded quantized")
	}
	got, want := loaded.Config(), sys.Config()
	if got.Seed != want.Seed || got.NodeCapacity != want.NodeCapacity ||
		got.RepFraction != want.RepFraction || got.Hierarchy != want.Hierarchy || got.Images != sys.Len() {
		t.Fatalf("recovered config %+v, built with %+v", got, want)
	}
	for _, ex := range []int{0, 3, 250} {
		if !reflect.DeepEqual(knnIDs(t, sys, ex, 20), knnIDs(t, loaded, ex, 20)) {
			t.Fatalf("k-NN from %d diverged across the qdbuild archive", ex)
		}
	}
	if !reflect.DeepEqual(sessionTranscript(t, sys), sessionTranscript(t, loaded)) {
		t.Fatal("feedback session diverged across the qdbuild archive")
	}

	t.Run("quantized", func(t *testing.T) {
		qsys := quantSystem(t)
		qloaded, err := Load(bytes.NewReader(encodeQdbuildArchive(t, qsys)))
		if err != nil {
			t.Fatal(err)
		}
		if !qloaded.Quantized() || !qloaded.rfs.Tree().QuantizedScoring() {
			t.Fatal("embedded quantizer was not adopted")
		}
		if !reflect.DeepEqual(qsys.quant.Parts(), qloaded.quant.Parts()) {
			t.Fatal("adopted quantizer differs from the embedded one")
		}
		for _, ex := range []int{9, 42, sys.Len() - 1} {
			want, err := sys.KNN(ex, 15)
			if err != nil {
				t.Fatal(err)
			}
			got, err := qloaded.KNN(ex, 15)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("SQ8 k-NN from %d differs from the exact answer", ex)
			}
		}
	})

	t.Run("dynamic", func(t *testing.T) {
		d, err := LoadDynamic(bytes.NewReader(data), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if st := d.Stats(); st.Segments != 1 || st.Live != sys.Len() {
			t.Fatalf("adopted stats %+v for corpus of %d", st, sys.Len())
		}
		// The dynamic engine runs under the same knobs as one adopted from
		// the versioned archive of the same build.
		var v3 bytes.Buffer
		if err := sys.Save(&v3); err != nil {
			t.Fatal(err)
		}
		ref, err := LoadDynamic(&v3, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		if !reflect.DeepEqual(d.Config(), ref.Config()) {
			t.Fatalf("adopted config %+v, want %+v", d.Config(), ref.Config())
		}
		want, err := sys.KNN(7, 12)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.KNN(context.Background(), sys.Corpus().Store().At(7), 12)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("adopted KNN rank %d: got %d, want %d", i, got[i].ID, want[i].ID)
			}
		}
		if d.LabelOf(7) != sys.SubconceptOf(7) {
			t.Fatalf("adopted label %q, want %q", d.LabelOf(7), sys.SubconceptOf(7))
		}
	})
}

// TestLoadHeaderErrors pins the load diagnostics over damaged and
// future-versioned archive headers: errors name what was found and, for
// version mismatches, the supported range.
func TestLoadHeaderErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want []string // substrings the error must contain
	}{
		{"empty", nil, []string{"decode"}},
		{"truncated 1 of 4", []byte{0xD1}, []string{"truncated archive header", "1 byte"}},
		{"truncated 2 of 4", []byte{0xD1, 'Q'}, []string{"truncated archive header", "2 byte"}},
		{"truncated 3 of 4", []byte{0xD1, 'Q', 'D'}, []string{"truncated archive header", "3 byte"}},
		{"corrupt prefix", []byte{0xD1, 'X', 'D', 0x02, 1, 2, 3}, []string{"corrupt archive header"}},
		{"version 0 headered", []byte{0xD1, 'Q', 'D', 0x00, 1, 2, 3}, []string{"version 0 unsupported", "versions 0 through 3"}},
		{"version 7", []byte{0xD1, 'Q', 'D', 0x07, 1, 2, 3}, []string{"version 7 unsupported", "versions 0 through 3"}},
		{"version 255", []byte{0xD1, 'Q', 'D', 0xFF, 1, 2, 3}, []string{"version 255 unsupported", "versions 0 through 3"}},
		{"v2 header, empty payload", archiveHeader(archiveVersionV2), []string{"decode"}},
		{"v2 header, garbage payload", append(archiveHeader(archiveVersionV2), []byte("garbage")...), []string{"decode"}},
		{"v3 header, empty payload", archiveHeader(archiveVersionV3), []string{"decode"}},
		{"v3 header, garbage payload", append(archiveHeader(archiveVersionV3), []byte("garbage")...), []string{"decode"}},
		{"v3 header, truncated gob", append(archiveHeader(archiveVersionV3), 0x3F, 0xFF), []string{"decode"}},
		{"v3 corrupt prefix", []byte{0xD1, 'Q', 'X', 0x03, 1, 2, 3}, []string{"corrupt archive header"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("damaged archive accepted")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// goldenV2ArchivePath is the committed v2 fixture; TestGoldenArchiveV2
// regenerates it when run with UPDATE_GOLDEN_ARCHIVE=1.
const goldenV2ArchivePath = "testdata/archive_v2_quantized.gob"

// TestGoldenArchiveV2 loads a version-2 archive committed to testdata —
// produced by an earlier build of Save — proving on-disk archives survive
// future code changes (not just in-process round trips). The fixture is a
// quantized vector-mode system; the test checks the header version, the
// adopted quantizer, and a pinned retrieval result.
func TestGoldenArchiveV2(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN_ARCHIVE") != "" {
		// Save writes version 3 now, so the historical v2 fixture is encoded
		// explicitly — exactly the bytes the v2-era Save produced.
		sys := quantSystem(t)
		body := sys.archiveBody()
		parts := sys.quant.Parts()
		a := archiveV2{
			Cfg:         body.Cfg,
			Infos:       body.Infos,
			Dim:         body.Dim,
			Points:      body.Points,
			HasChannels: body.HasChannels,
			Channels:    body.Channels,
			RFS:         body.RFS,
			NormMin:     body.NormMin,
			NormMax:     body.NormMax,
			Quant:       &parts,
		}
		if err := os.MkdirAll(filepath.Dir(goldenV2ArchivePath), 0o755); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.Write(archiveHeader(archiveVersionV2))
		if err := gob.NewEncoder(&buf).Encode(&a); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenV2ArchivePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenV2ArchivePath)
	}
	raw, err := os.ReadFile(goldenV2ArchivePath)
	if err != nil {
		t.Fatalf("golden fixture missing (set UPDATE_GOLDEN_ARCHIVE=1 to generate): %v", err)
	}
	if !bytes.HasPrefix(raw, archiveHeader(archiveVersionV2)) {
		t.Fatalf("fixture does not start with the v2 magic: % x", raw[:4])
	}
	loaded, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden v2 archive rejected: %v", err)
	}
	if !loaded.Quantized() {
		t.Fatal("golden archive lost quantization")
	}
	// The fixture was built by quantSystem's deterministic config, so a
	// fresh build must agree with it exactly.
	fresh := quantSystem(t)
	if loaded.Len() != fresh.Len() {
		t.Fatalf("fixture corpus size %d, want %d", loaded.Len(), fresh.Len())
	}
	if !reflect.DeepEqual(fresh.quant.Parts(), loaded.quant.Parts()) {
		t.Fatal("fixture quantizer differs from a fresh training")
	}
	if !reflect.DeepEqual(knnIDs(t, fresh, 11, 10), knnIDs(t, loaded, 11, 10)) {
		t.Fatal("fixture retrieval diverged from a fresh build")
	}
}
