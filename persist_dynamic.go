package qdcbir

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"qdcbir/internal/atomicfile"
	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/seg"
	"qdcbir/internal/store"
)

// archiveSegV4 is one sealed segment on the wire: the ascending global IDs,
// the store backing at its native precision (Points for a float64 store,
// Points32 for a float32-precision store — never both), the point-free tree
// topology, and tombstoned global IDs. The SQ8 quantizer is NOT persisted:
// training is deterministic from the segment's rows, so the loader retrains
// it — and even a hypothetically different quantizer could not change
// results, because the SQ8 path reranks exactly.
type archiveSegV4 struct {
	IDs        []int
	Points     []float64
	Points32   []float32
	RFS        *rfs.TopologySnapshot
	Tombstoned []int
}

// archiveV4 is the dynamic-system wire format: the engine knobs, the sealed
// segments, the memtable image (base ID, row-major float64 rows including
// tombstoned slots, tombstoned slot indices), the ID allocator and epoch,
// and the label table. Written by Dynamic.Save behind the versioned 4-byte
// header with version 4; read by LoadDynamic and OpenArchiveFile (the static
// Load rejects it with a pointer to LoadDynamic).
type archiveV4 struct {
	Dim                int
	SealThreshold      int
	MaxSegments        int
	Seed               int64
	NodeCapacity       int
	RepFraction        float64
	BoundaryThreshold  float64
	Quantized          bool
	RerankFactor       int
	Float32            bool
	DisableAutoCompact bool

	Epoch  uint64
	NextID int
	Segs   []archiveSegV4

	MemBaseID int
	MemRows   []float64
	MemTombs  []int

	Labels map[int]string
}

// Save persists the dynamic system in the version-4 format. The snapshot
// pinned at entry is what travels: concurrent writers are never blocked, and
// rows inserted after the pin simply miss this archive (the persisted NextID
// is taken after the pin, so their IDs are not reused on the restored side
// either).
func (d *Dynamic) Save(w io.Writer) error {
	snap := d.db.Acquire()
	defer snap.Release()
	cfg := d.cfg
	a := archiveV4{
		Dim:                cfg.Dim,
		SealThreshold:      cfg.SealThreshold,
		MaxSegments:        cfg.MaxSegments,
		Seed:               cfg.Seed,
		NodeCapacity:       cfg.NodeCapacity,
		RepFraction:        cfg.RepFraction,
		BoundaryThreshold:  cfg.BoundaryThreshold,
		Quantized:          cfg.Quantized,
		RerankFactor:       cfg.RerankFactor,
		Float32:            cfg.Float32,
		DisableAutoCompact: cfg.DisableAutoCompact,
		Epoch:              snap.Epoch(),
		NextID:             d.db.Stats().NextID,
		Labels:             d.labelsCopy(),
	}
	for _, in := range snap.SealedInputs() {
		as := archiveSegV4{
			IDs:        in.IDs,
			RFS:        in.Structure.TopologySnapshot(),
			Tombstoned: in.Tombstoned,
		}
		if in.Store.Precision() == store.Float32 {
			as.Points32 = in.Store.Backing32()
		} else {
			as.Points = in.Store.Backing()
		}
		a.Segs = append(a.Segs, as)
	}
	mem := snap.MemInput()
	a.MemBaseID, a.MemRows, a.MemTombs = mem.BaseID, mem.Rows, mem.Tombstoned

	if _, err := w.Write(archiveHeader(archiveVersionV4)); err != nil {
		return fmt.Errorf("qdcbir: write header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(&a); err != nil {
		return fmt.Errorf("qdcbir: encode: %w", err)
	}
	return nil
}

// SaveFile persists the dynamic system to a file.
func (d *Dynamic) SaveFile(path string) error {
	return atomicfile.WriteFile(path, d.Save)
}

// LoadDynamic reconstructs a dynamic system from any archive this build
// knows: a version-4 dynamic archive restores segments, memtable,
// tombstones, epoch, and labels; a static archive (versions 0 through 3)
// loads through the monolithic path and is adopted as a single sealed
// segment via OpenDynamic. observer may be nil; when set it receives the
// restored engine's ingest metrics.
func LoadDynamic(r io.Reader, observer *obs.Observer) (*Dynamic, error) {
	o, err := openArchive(r, openDynamic, observer)
	if err != nil {
		return nil, err
	}
	return o.Dynamic, nil
}

// LoadDynamicFile reconstructs a dynamic system from a file.
func LoadDynamicFile(path string, observer *obs.Observer) (*Dynamic, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDynamic(f, observer)
}

// loadDynamicV4 decodes a version-4 payload: each segment's store adopts its
// backing at the persisted precision, the tree is rebuilt point-free from
// the topology snapshot, and (for quantized configs) the SQ8 quantizer is
// retrained per segment — deterministic, and harmless to results either way
// since the SQ8 path reranks exactly. The engine then reassembles through
// seg.Restore, which re-applies float32 materialization and tombstones.
func loadDynamicV4(r io.Reader, observer *obs.Observer) (*Dynamic, error) {
	var a archiveV4
	if err := gob.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("qdcbir: decode: %w", err)
	}
	cfg := DynamicConfig{
		Dim:                a.Dim,
		SealThreshold:      a.SealThreshold,
		MaxSegments:        a.MaxSegments,
		Seed:               a.Seed,
		NodeCapacity:       a.NodeCapacity,
		RepFraction:        a.RepFraction,
		BoundaryThreshold:  a.BoundaryThreshold,
		Quantized:          a.Quantized,
		RerankFactor:       a.RerankFactor,
		Float32:            a.Float32,
		DisableAutoCompact: a.DisableAutoCompact,
		Observer:           observer,
	}
	sealed := make([]seg.SealedInput, 0, len(a.Segs))
	for si, as := range a.Segs {
		var st *store.FeatureStore
		var err error
		if as.Points32 != nil {
			if as.Points != nil {
				return nil, fmt.Errorf("qdcbir: segment %d carries both float64 and float32 points", si)
			}
			st, err = store.FromBacking32(a.Dim, as.Points32)
		} else {
			st, err = store.FromBacking(a.Dim, as.Points)
		}
		if err != nil {
			return nil, fmt.Errorf("qdcbir: segment %d store: %w", si, err)
		}
		structure, err := rfs.FromTopologySnapshot(as.RFS, st)
		if err != nil {
			return nil, fmt.Errorf("qdcbir: segment %d: %w", si, err)
		}
		in := seg.SealedInput{IDs: as.IDs, Store: st, Structure: structure, Tombstoned: as.Tombstoned}
		if a.Quantized {
			if qz, qerr := store.Quantize(st); qerr == nil && structure.AdoptQuantized(qz) == nil {
				in.Quantized = true
			}
		}
		sealed = append(sealed, in)
	}
	db, err := seg.Restore(cfg.segConfig(), sealed, seg.MemInput{
		BaseID:     a.MemBaseID,
		Rows:       a.MemRows,
		Tombstoned: a.MemTombs,
	}, a.NextID, a.Epoch)
	if err != nil {
		return nil, err
	}
	labels := a.Labels
	if labels == nil {
		labels = make(map[int]string)
	}
	return &Dynamic{cfg: dynamicConfigFrom(db.Config(), observer), db: db, labels: labels}, nil
}
