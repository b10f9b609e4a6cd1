// Command qdbuild is the database builder of the prototype (§4): it
// generates a synthetic corpus, constructs the RFS structure over it, and
// persists both to disk for later sessions (cmd/qdquery, cmd/qdserve) — the
// "building the RFS structure and populating the image database" step.
//
// With -import, qdbuild skips the synthetic generator and builds the
// structure over externally computed embedding vectors instead (JSON-lines,
// CSV, or .fvecs). Either way it builds one qdcbir.System and writes it as
// the versioned system archive (System.SaveFile), as shard archives for a
// qdrouter fleet (-shards), or as a dynamic segmented archive (-dynamic).
// Every command opens the result through the root package's loaders.
//
// Usage:
//
//	qdbuild -out db.gob -images 15000 -categories 150
//	qdbuild -out small.gob -images 1200 -categories 25 -capacity 24 -reps 0.2
//	qdbuild -out emb.gob -import vectors.fvecs -f32
//	qdbuild -out emb.gob -import labeled.csv -format csv
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"qdcbir"
	"qdcbir/internal/source"
)

func main() {
	var (
		out        = flag.String("out", "qdcbir.gob", "output file")
		images     = flag.Int("images", 15000, "corpus size")
		categories = flag.Int("categories", 150, "number of categories")
		capacity   = flag.Int("capacity", 100, "R*-tree node capacity")
		reps       = flag.Float64("reps", 0.05, "representative fraction")
		seed       = flag.Int64("seed", 1, "random seed")
		vectors    = flag.Bool("vectors", false, "vector mode (skip rendering)")
		hierarchy  = flag.String("hierarchy", "str", "clustering backbone: str|insert|kmeans")
		quantize   = flag.Bool("quantize", false, "train and embed the SQ8 quantizer (8x smaller scan tables; identical results)")
		importPath = flag.String("import", "", "build over this embedding file (jsonl|csv|fvecs) instead of the synthetic generator")
		format     = flag.String("format", "", "embedding file format for -import: jsonl|csv|fvecs (empty = infer from extension)")
		f32        = flag.Bool("f32", false, "with -import: scan at float32 precision (natural for .fvecs, whose values are float32 already)")
		shards     = flag.Int("shards", 0, "also slice the build into N shard archives (<out>.shardI) for a qdrouter fleet")
		shardIdx   = flag.Int("shard", -1, "with -shards: write only shard I's archive (rebuilds deterministically, for per-shard build farms)")
		dynamic    = flag.Bool("dynamic", false, "write a dynamic segmented archive (v4): the build becomes one sealed segment and qdserve accepts online inserts/deletes against it")
	)
	flag.Parse()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *shards < 0 || *shards == 1 {
		fatal(fmt.Errorf("-shards must be 0 or >= 2, got %d", *shards))
	}
	if *shardIdx >= 0 && *shards == 0 {
		fatal(fmt.Errorf("-shard requires -shards"))
	}
	if *shardIdx >= *shards && *shards > 0 {
		fatal(fmt.Errorf("-shard %d out of range for %d shards", *shardIdx, *shards))
	}
	if *dynamic && *shards > 0 {
		fatal(fmt.Errorf("-dynamic and -shards are mutually exclusive (shard slices are immutable)"))
	}
	if *importPath == "" && (*format != "" || *f32) {
		fatal(fmt.Errorf("-format and -f32 only apply with -import"))
	}

	var sys *qdcbir.System
	var err error
	if *importPath != "" {
		sys, err = buildImported(*importPath, *format, *f32, *seed, *capacity, *reps, *hierarchy, *quantize, log)
	} else {
		sys, err = buildSystem(*seed, *categories, *images, *capacity, *reps, *vectors, *hierarchy, *quantize, log)
	}
	if err != nil {
		fatal(err)
	}
	switch {
	case *dynamic:
		// The build becomes the dynamic engine's single sealed segment.
		dyn, err := qdcbir.OpenDynamic(sys, qdcbir.DynamicConfig{})
		if err != nil {
			fatal(err)
		}
		if err := dyn.SaveFile(*out); err != nil {
			fatal(err)
		}
		st := dyn.Stats()
		log.Info("wrote dynamic archive", "version", qdcbir.DynamicArchiveVersion,
			"live", st.Live, "segments", st.Segments, "epoch", st.Epoch)
		logWritten(log, *out)
	case *shards > 0:
		if err := writeShards(sys, *out, *shards, *shardIdx, log); err != nil {
			fatal(err)
		}
	default:
		if err := sys.SaveFile(*out); err != nil {
			fatal(err)
		}
		logWritten(log, *out)
	}
}

// buildSystem assembles the full System over the synthetic corpus.
func buildSystem(seed int64, categories, images, capacity int, reps float64, vectors bool, hierarchy string, quantize bool, log *slog.Logger) (*qdcbir.System, error) {
	log.Info("building system", "images", images, "categories", categories, "hierarchy", hierarchy)
	sys, err := qdcbir.Build(qdcbir.Config{
		Seed:         seed,
		Categories:   categories,
		Images:       images,
		NodeCapacity: capacity,
		RepFraction:  reps,
		Hierarchy:    hierarchy,
		Quantized:    quantize,
		VectorMode:   vectors,
	})
	if err != nil {
		return nil, err
	}
	logBuilt(log, sys)
	return sys, nil
}

// shardPath derives shard i's archive path from the base output path:
// db.gob -> db.shard0.gob.
func shardPath(out string, i int) string {
	ext := ""
	base := out
	if dot := len(out) - len(filepath.Ext(out)); filepath.Ext(out) != "" {
		base, ext = out[:dot], out[dot:]
	}
	return fmt.Sprintf("%s.shard%d%s", base, i, ext)
}

// writeShards persists the fleet artifacts: the full single-node archive at
// out (the bit-exactness reference; skipped when only one shard was asked
// for) plus one shard archive per slice.
func writeShards(sys *qdcbir.System, out string, shards, only int, log *slog.Logger) error {
	if only >= 0 {
		a, err := qdcbir.SliceShard(context.Background(), sys, shards, only)
		if err != nil {
			return err
		}
		p := shardPath(out, only)
		if err := a.WriteFile(p); err != nil {
			return err
		}
		log.Info("wrote shard archive", "path", p, "shard", only, "of", shards,
			"local_images", a.Meta.LocalImages, "corpus_sig", fmt.Sprintf("%016x", a.Meta.CorpusSig))
		return nil
	}
	if err := sys.SaveFile(out); err != nil {
		return err
	}
	logWritten(log, out)
	archives, err := qdcbir.SliceShards(context.Background(), sys, shards)
	if err != nil {
		return err
	}
	for i, a := range archives {
		p := shardPath(out, i)
		if err := a.WriteFile(p); err != nil {
			return err
		}
		log.Info("wrote shard archive", "path", p, "shard", i, "of", shards,
			"local_images", a.Meta.LocalImages, "corpus_sig", fmt.Sprintf("%016x", a.Meta.CorpusSig))
	}
	return nil
}

func logWritten(log *slog.Logger, path string) {
	info, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	log.Info("wrote archive", "path", path, "size_mb", fmt.Sprintf("%.1f", float64(info.Size())/(1<<20)))
}

// buildImported ingests an embedding file and assembles the full system over
// it; the versioned archive carries the corpus dimension and precision.
func buildImported(path, format string, f32 bool, seed int64, capacity int, reps float64, hierarchy string, quantize bool, log *slog.Logger) (*qdcbir.System, error) {
	src, err := source.File(path, format)
	if err != nil {
		return nil, err
	}
	log.Info("importing vectors", "path", path, "format", src.Format(), "float32", f32)
	sys, err := qdcbir.BuildFromSource(qdcbir.Config{
		Seed:         seed,
		NodeCapacity: capacity,
		RepFraction:  reps,
		Hierarchy:    hierarchy,
		Quantized:    quantize,
		Float32:      f32,
	}, src)
	if err != nil {
		return nil, err
	}
	logBuilt(log, sys)
	return sys, nil
}

func logBuilt(log *slog.Logger, sys *qdcbir.System) {
	log.Info("system built",
		"images", sys.Len(),
		"dim", sys.Corpus().Store().Dim(),
		"precision", sys.Corpus().Store().Precision().String(),
		"quantized", sys.Quantized(),
		"height", sys.TreeHeight(),
		"representatives", sys.RepresentativeCount())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qdbuild:", err)
	os.Exit(1)
}
