// Command qdbuild is the database builder of the prototype (§4): it
// generates a synthetic corpus, constructs the RFS structure over it, and
// persists both to disk for later sessions (cmd/qdquery) — the "building the
// RFS structure and populating the image database" step.
//
// With -import, qdbuild skips the synthetic generator and builds the
// structure over externally computed embedding vectors instead (JSON-lines,
// CSV, or .fvecs). Imported databases are written in the versioned system
// archive format (readable by qdcbir.LoadFile and qdquery alike) rather than
// the legacy gob below, because they must carry the corpus dimension and
// precision.
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
	"encoding/gob"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"

	"qdcbir"
	"qdcbir/internal/atomicfile"
	"qdcbir/internal/dataset"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/source"
	"qdcbir/internal/store"
)

// Archive is the on-disk form: ground truth plus the RFS snapshot (which
// carries the vectors). Quant is the optional SQ8 quantizer of a -quantize
// build; gob ignores unknown fields, so archives with it load fine in older
// readers and archives without it leave the pointer nil here.
type Archive struct {
	Infos []dataset.Info
	RFS   *rfs.Snapshot
	Quant *store.QuantParts
}

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
		importPath = flag.String("import", "", "build over this embedding file (jsonl|csv|fvecs) instead of the synthetic generator; writes a versioned system archive")
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
	if *dynamic {
		// The dynamic archive needs the assembled system, so both corpus
		// flavors go through the versioned build path, then the build is
		// adopted as a single sealed segment.
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
		return
	}
	if *shards > 0 {
		// Shard slicing needs the assembled system, so both corpus flavors go
		// through the versioned build path.
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
		if err := writeShards(sys, *out, *shards, *shardIdx, log); err != nil {
			fatal(err)
		}
		return
	}

	if *importPath != "" {
		sys, err := buildImported(*importPath, *format, *f32, *seed, *capacity, *reps, *hierarchy, *quantize, log)
		if err != nil {
			fatal(err)
		}
		if err := sys.SaveFile(*out); err != nil {
			fatal(err)
		}
		logWritten(log, *out)
		return
	}
	if *format != "" || *f32 {
		fatal(fmt.Errorf("-format and -f32 only apply with -import"))
	}

	arch, err := buildArchive(*seed, *categories, *images, *capacity, *reps, *vectors, *hierarchy, *quantize, log)
	if err != nil {
		fatal(err)
	}

	if err := atomicfile.WriteFile(*out, func(w io.Writer) error { return gob.NewEncoder(w).Encode(arch) }); err != nil {
		fatal(err)
	}
	logWritten(log, *out)
}

// buildSystem assembles the full System over the synthetic corpus (the
// sliceable equivalent of buildArchive).
func buildSystem(seed int64, categories, images, capacity int, reps float64, vectors bool, hierarchy string, quantize bool, log *slog.Logger) (*qdcbir.System, error) {
	log.Info("building system", "images", images, "categories", categories, "hierarchy", hierarchy)
	return qdcbir.Build(qdcbir.Config{
		Seed:         seed,
		Categories:   categories,
		Images:       images,
		NodeCapacity: capacity,
		RepFraction:  reps,
		Hierarchy:    hierarchy,
		Quantized:    quantize,
		VectorMode:   vectors,
	})
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
// it. Unlike buildArchive, the result is persisted as a versioned qdcbir
// archive (via System.SaveFile) so the corpus dimension and precision travel
// with the data.
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
	log.Info("imported system built",
		"images", sys.Len(),
		"dim", sys.Corpus().Store().Dim(),
		"precision", sys.Corpus().Store().Precision().String(),
		"height", sys.TreeHeight(),
		"representatives", sys.RepresentativeCount())
	return sys, nil
}

// buildArchive generates the corpus, builds the RFS structure, and packages
// both for persistence.
func buildArchive(seed int64, categories, images, capacity int, reps float64, vectors bool, hierarchy string, quantize bool, log *slog.Logger) (*Archive, error) {
	spec := dataset.SmallSpec(seed, categories, images)
	log.Info("generating corpus", "images", spec.TotalImages(), "categories", len(spec.Categories))
	var corpus *dataset.Corpus
	if vectors {
		corpus = dataset.BuildVectors(spec, 37, 0.02, seed+1)
	} else {
		corpus = dataset.Build(spec, dataset.Options{Seed: seed + 1})
	}
	if err := corpus.Validate(); err != nil {
		return nil, err
	}

	log.Info("building RFS structure", "hierarchy", hierarchy)
	structure := rfs.Build(corpus.Vectors, rfs.BuildConfig{
		RepFraction: reps,
		Tree:        rstar.Config{MaxFill: capacity},
		TargetFill:  capacity * 93 / 100,
		Hierarchy:   hierarchy,
		Seed:        seed + 2,
	})
	if err := structure.Validate(); err != nil {
		return nil, err
	}
	log.Info("tree built",
		"height", structure.Tree().Height(), "nodes", structure.Tree().NodeCount(),
		"representatives", structure.RepCount(),
		"rep_pct", fmt.Sprintf("%.1f", 100*float64(structure.RepCount())/float64(corpus.Len())))
	arch := &Archive{Infos: corpus.Infos, RFS: structure.Snapshot()}
	if quantize {
		qz, err := store.Quantize(corpus.Store())
		if err != nil {
			return nil, fmt.Errorf("quantize: %w", err)
		}
		parts := qz.Parts()
		arch.Quant = &parts
		log.Info("trained SQ8 quantizer",
			"codes_bytes", len(parts.Codes),
			"float_bytes", 8*len(parts.Codes))
	}
	return arch, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qdbuild:", err)
	os.Exit(1)
}
