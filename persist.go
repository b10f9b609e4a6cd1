package qdcbir

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"qdcbir/internal/atomicfile"
	"qdcbir/internal/dataset"
	"qdcbir/internal/feature"
	"qdcbir/internal/img"
	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/shard"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// Versioned archives open with a 4-byte header: the 3-byte family prefix
// 0xD1 'Q' 'D' followed by a version byte. The first byte (0xD1) can never
// begin a gob stream — gob encodes the leading message length as a varint
// whose first byte is either a small count (0x00..0x7F) or a length-of-length
// marker (0xF8..0xFF) — so the prefix unambiguously separates headered
// archives from the header-less version-0 gob archives Load still accepts.
var archivePrefix = [3]byte{0xD1, 'Q', 'D'}

// Archive versions this build reads (Save always writes the newest).
const (
	archiveVersionV1  = 1 // flat feature store, point-free RFS topology
	archiveVersionV2  = 2 // v1 plus the optional SQ8 quantizer sidecar
	archiveVersionV3  = 3 // v2 plus the store precision and a native float32 backing
	archiveVersionV4  = 4 // dynamic segmented archive (Dynamic.Save / LoadDynamic)
	archiveVersionMax = archiveVersionV3
)

// ArchiveVersionCurrent is the archive format version Save writes.
const ArchiveVersionCurrent = archiveVersionMax

// DynamicArchiveVersion is the archive format version Dynamic.Save writes.
// Dynamic archives share the 4-byte header family with static archives but
// are a distinct kind: LoadDynamic reads every version (wrapping static
// archives as a single sealed segment), while the static Load rejects
// version 4 with a pointer to LoadDynamic.
const DynamicArchiveVersion = archiveVersionV4

// archiveHeader returns the 4-byte header of the given archive version.
func archiveHeader(version byte) []byte {
	return []byte{archivePrefix[0], archivePrefix[1], archivePrefix[2], version}
}

// archive is the version-0 gob wire format for a whole System, kept so
// archives written before the flat feature store still load. It stores every
// corpus vector twice (once in the RFS snapshot's point table, once inside
// the tree's leaf items) and the original colour channel a third time inside
// ChannelVectors. The same decoder opens files from qdbuild's former bare-gob
// writer ({Infos, RFS, Quant}): gob leaves the missing fields zero, and Quant
// is that writer's optional SQ8 quantizer.
type archive struct {
	Cfg            Config
	Infos          []dataset.Info
	RFS            *rfs.Snapshot
	ChannelVectors map[img.Channel][]vec.Vector
	NormMin        vec.Vector // extractor state (min-max normalizer)
	NormMax        vec.Vector
	Quant          *store.QuantParts // nil unless written by qdbuild -quantize
}

// archiveV1 is the version-1 wire format: the corpus feature vectors travel
// once, as the flat store's backing array, and the RFS hierarchy travels
// point-free (leaf item IDs only). Channels holds the backing arrays of the
// derived colour channels; the original channel is the main Points array and
// is re-aliased on load rather than stored again.
type archiveV1 struct {
	Cfg         Config
	Infos       []dataset.Info
	Dim         int
	Points      []float64
	HasChannels bool
	Channels    map[img.Channel][]float64
	RFS         *rfs.TopologySnapshot
	NormMin     vec.Vector // extractor state (min-max normalizer)
	NormMax     vec.Vector
}

// archiveV2 is the current wire format: every archiveV1 field (same names,
// same encodings — gob matches fields by name, so a v1 payload decodes into
// this struct with Quant left nil) plus the optional SQ8 quantizer of a
// Config.Quantized system, persisted so loads skip retraining.
type archiveV2 struct {
	Cfg         Config
	Infos       []dataset.Info
	Dim         int
	Points      []float64
	HasChannels bool
	Channels    map[img.Channel][]float64
	RFS         *rfs.TopologySnapshot
	NormMin     vec.Vector // extractor state (min-max normalizer)
	NormMax     vec.Vector
	Quant       *store.QuantParts // nil unless the system is quantized
}

// archiveV3 is the current wire format: every archiveV2 field (same names,
// same encodings) plus the corpus store's precision tag. A float32-precision
// store — an imported float32 embedding corpus — persists its rows once, in
// the native Points32 backing (half the bytes, no rounding), leaving Points
// nil; a float64 store persists Points exactly as version 2 did, leaving
// Points32 nil. Gob's field-by-name matching means v1 and v2 payloads decode
// into this struct with Precision empty, which reads as float64.
type archiveV3 struct {
	Cfg         Config
	Infos       []dataset.Info
	Dim         int
	Points      []float64
	HasChannels bool
	Channels    map[img.Channel][]float64
	RFS         *rfs.TopologySnapshot
	NormMin     vec.Vector // extractor state (min-max normalizer)
	NormMax     vec.Vector
	Quant       *store.QuantParts // nil unless the system is quantized
	Precision   string            // store precision ("f64", "f32"; "" = f64)
	Points32    []float32         // store backing of an "f32" archive; Points is nil
}

// archiveBody captures the system's persistent state in the version-1
// layout, which versions 2 and 3 extend field-for-field.
func (s *System) archiveBody() archiveV1 {
	st := s.corpus.Store()
	a := archiveV1{
		Cfg:         s.cfg,
		Infos:       s.corpus.Infos,
		Dim:         st.Dim(),
		Points:      st.Backing(),
		HasChannels: s.corpus.ChannelVectors != nil,
		RFS:         s.rfs.TopologySnapshot(),
	}
	for ch, cst := range s.corpus.ChannelStores() {
		if ch == img.ChannelOriginal {
			continue // aliases the main store; re-aliased on load
		}
		if a.Channels == nil {
			a.Channels = make(map[img.Channel][]float64)
		}
		a.Channels[ch] = cst.Backing()
	}
	if s.corpus.Extractor != nil {
		min, max := s.corpus.Extractor.NormalizerBounds()
		a.NormMin, a.NormMax = min, max
	}
	return a
}

// Save persists the system to w in the version-3 format: a 4-byte header
// followed by the gob-encoded archiveV3. Ground truth, configuration, the
// feature normalizer, the store precision, and (for quantized systems) the
// SQ8 quantizer travel alongside the store backing and the point-free RFS
// topology, so a Load-ed system answers queries identically. A system saved
// from an older archive upgrades to version 3 on the next Save.
func (s *System) Save(w io.Writer) error {
	body := s.archiveBody()
	st := s.corpus.Store()
	a := archiveV3{
		Cfg:         body.Cfg,
		Infos:       body.Infos,
		Dim:         body.Dim,
		Points:      body.Points,
		HasChannels: body.HasChannels,
		Channels:    body.Channels,
		RFS:         body.RFS,
		NormMin:     body.NormMin,
		NormMax:     body.NormMax,
		Precision:   st.Precision().String(),
	}
	if st.Precision() == store.Float32 {
		// Persist the native rows once; the float64 view is rebuilt by exact
		// widening on load.
		a.Points, a.Points32 = nil, st.Backing32()
	}
	if s.quant != nil {
		parts := s.quant.Parts()
		a.Quant = &parts
	}
	if _, err := w.Write(archiveHeader(archiveVersionV3)); err != nil {
		return fmt.Errorf("qdcbir: write header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(&a); err != nil {
		return fmt.Errorf("qdcbir: encode: %w", err)
	}
	return nil
}

// SaveFile persists the system to a file.
func (s *System) SaveFile(path string) error {
	return atomicfile.WriteFile(path, s.Save)
}

// Opened is an archive opened by OpenArchiveFile, with its format version.
// Exactly one of System and Dynamic is set; Replica is set alongside System
// for a shard archive, whose System is the shard's local subset.
type Opened struct {
	Version int // 0 for a header-less version-0 gob archive
	System  *System
	Replica *shard.Replica
	Dynamic *Dynamic
}

// openMode restricts which archive kinds openArchive accepts and what it
// opens them as.
type openMode int

const (
	openAny     openMode = iota // the header decides: shard, dynamic, or static
	openStatic                  // Load: versions 0 through 3 only
	openDynamic                 // LoadDynamic: static archives adopt as one segment
)

// OpenArchiveFile reads any archive this build writes; its header picks the
// decoder. A shard archive opens through OpenShard; a version-4 archive
// restores a Dynamic engine; versions 1 through 3 and the header-less
// version 0 decode into a System. With dynamic set, a static archive is
// adopted as a single sealed segment (OpenDynamic) and a shard archive is
// refused. observer, when non-nil, receives the opened engine's telemetry.
func OpenArchiveFile(path string, dynamic bool, observer *obs.Observer) (*Opened, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	mode := openAny
	if dynamic {
		mode = openDynamic
	}
	return openArchive(f, mode, observer)
}

// Load reconstructs a system persisted by Save. Every static archive version
// this build knows — the current version 3, versions 1 and 2, and the
// header-less version-0 gob format — is accepted; the version is detected
// from the first bytes of the stream. A headered archive of an unknown
// version is rejected with an error naming the on-disk version and the
// supported range.
func Load(r io.Reader) (*System, error) {
	o, err := openArchive(r, openStatic, nil)
	if err != nil {
		return nil, err
	}
	return o.System, nil
}

// openArchive is the one archive-header dispatcher behind OpenArchiveFile,
// Load and LoadDynamic.
func openArchive(r io.Reader, mode openMode, observer *obs.Observer) (*Opened, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if shard.IsArchiveHeader(head) {
		if mode != openAny {
			return nil, fmt.Errorf("qdcbir: shard archive: a read-only slice opens only as a shard replica (OpenShard)")
		}
		rep, sys, err := OpenShard(br)
		if err != nil {
			return nil, err
		}
		return &Opened{Version: rep.Meta().ArchiveVersion, System: observed(sys, observer), Replica: rep}, nil
	}
	version := 0
	if len(head) > 0 && head[0] == archivePrefix[0] {
		// The headered family; anything else is a version-0 bare gob stream
		// or garbage, which gob rejects with its own decode error.
		if len(head) < 4 {
			return nil, fmt.Errorf("qdcbir: truncated archive header: %d byte(s) of the 4-byte magic (%w)", len(head), err)
		}
		if !bytes.Equal(head[:3], archivePrefix[:]) {
			return nil, fmt.Errorf("qdcbir: corrupt archive header % x: want prefix % x", head, archivePrefix)
		}
		version = int(head[3])
		if version == archiveVersionV4 && mode == openStatic {
			return nil, fmt.Errorf("qdcbir: archive version %d is a dynamic segmented archive: load it with LoadDynamic", version)
		}
		if version < archiveVersionV1 || version > archiveVersionV4 {
			return nil, fmt.Errorf("qdcbir: archive version %d unsupported: this build reads versions 0 through %d (version 0 archives are header-less) and dynamic version %d",
				version, archiveVersionMax, archiveVersionV4)
		}
		if _, err := br.Discard(4); err != nil {
			return nil, fmt.Errorf("qdcbir: read header: %w", err)
		}
	}
	o := &Opened{Version: version}
	switch version {
	case archiveVersionV4:
		o.Dynamic, err = loadDynamicV4(br, observer)
	case 0:
		o.System, err = loadV0(br)
	default:
		// Versions 1 through 3 share a payload layout (each adds optional
		// fields, which gob leaves zero when absent), so one decoder serves
		// all three.
		o.System, err = loadStoreBacked(br)
	}
	if err != nil {
		return nil, err
	}
	if mode == openDynamic && o.System != nil {
		o.Dynamic, err = OpenDynamic(o.System, DynamicConfig{Observer: observer})
		o.System = nil
		if err != nil {
			return nil, err
		}
	}
	o.System = observed(o.System, observer)
	return o, nil
}

// observed returns sys reporting to observer, or sys itself when either is
// nil.
func observed(sys *System, observer *obs.Observer) *System {
	if sys == nil || observer == nil {
		return sys
	}
	return sys.WithObserver(observer)
}

// loadStoreBacked decodes the store-backed formats (versions 1-3): the
// corpus adopts the decoded backing array — at the persisted precision for a
// version-3 archive — and the RFS structure is rebuilt over the corpus
// store's row views. A quantizer sidecar, when present, is validated and
// adopted so the loaded system scans quantized without retraining.
func loadStoreBacked(r io.Reader) (*System, error) {
	var a archiveV3
	if err := gob.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("qdcbir: decode: %w", err)
	}
	prec, err := store.ParsePrecision(a.Precision)
	if err != nil {
		return nil, fmt.Errorf("qdcbir: corpus store: %w", err)
	}
	var main *store.FeatureStore
	if prec == store.Float32 {
		if a.Points != nil {
			return nil, fmt.Errorf("qdcbir: corpus store: float32 archive carries %d float64 points", len(a.Points))
		}
		main, err = store.FromBacking32(a.Dim, a.Points32)
	} else {
		if a.Points32 != nil {
			return nil, fmt.Errorf("qdcbir: corpus store: float64 archive carries %d float32 points", len(a.Points32))
		}
		main, err = store.FromBacking(a.Dim, a.Points)
	}
	if err != nil {
		return nil, fmt.Errorf("qdcbir: corpus store: %w", err)
	}
	var corpus *dataset.Corpus
	if prec == store.Float32 {
		// Channels are an image-mode concept; float32 stores come from
		// imported vectors, so the store is adopted directly (keeping the
		// native backing) and there are no channels to rebuild.
		corpus, err = dataset.ReassembleStore(a.Infos, main)
	} else {
		vectors := main.Views()
		var channelVectors map[img.Channel][]vec.Vector
		if a.HasChannels {
			channelVectors = map[img.Channel][]vec.Vector{
				img.ChannelOriginal: vectors,
			}
			for ch, backing := range a.Channels {
				cst, err := store.FromBacking(a.Dim, backing)
				if err != nil {
					return nil, fmt.Errorf("qdcbir: channel %v store: %w", ch, err)
				}
				channelVectors[ch] = cst.Views()
			}
		}
		corpus, err = dataset.Reassemble(a.Infos, vectors, channelVectors)
	}
	if err != nil {
		return nil, err
	}
	if a.NormMin != nil {
		corpus.Extractor = feature.NewExtractorFromBounds(a.NormMin, a.NormMax)
	}
	structure, err := rfs.FromTopologySnapshot(a.RFS, corpus.Store())
	if err != nil {
		return nil, err
	}
	qz, err := quantizerOf(a.Quant)
	if err != nil {
		return nil, err
	}
	return assembleLoaded(a.Cfg, corpus, structure, qz)
}

// quantizerOf restores a persisted SQ8 quantizer; nil parts restore none.
func quantizerOf(parts *store.QuantParts) (*store.Quantized, error) {
	if parts == nil {
		return nil, nil
	}
	qz, err := store.FromParts(*parts)
	if err != nil {
		return nil, fmt.Errorf("qdcbir: quantizer: %w", err)
	}
	return qz, nil
}

// loadV0 decodes the legacy gob format. The duplicated original channel in
// old archives is discarded in favour of an alias when the corpus adopts its
// feature store, so version-0 archives load into exactly the deduplicated
// in-memory layout that version-1 archives produce. A file from qdbuild's
// former writer records no Config: the build knobs are recovered from the RFS
// snapshot, and an embedded -quantize quantizer is adopted, so the system
// scans SQ8 as that build did.
func loadV0(r io.Reader) (*System, error) {
	var a archive
	if err := gob.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("qdcbir: decode: %w", err)
	}
	structure, err := rfs.FromSnapshot(a.RFS)
	if err != nil {
		return nil, err
	}
	corpus, err := dataset.Reassemble(a.Infos, vectorsOf(structure), a.ChannelVectors)
	if err != nil {
		return nil, err
	}
	if a.NormMin != nil {
		corpus.Extractor = feature.NewExtractorFromBounds(a.NormMin, a.NormMax)
	}
	if a.Cfg == (Config{}) {
		// A former qdbuild file records no Config, only the RFS build
		// configuration, whose seed is the build seed + 2.
		bc := a.RFS.Cfg
		a.Cfg = Config{
			Seed:         bc.Seed - 2,
			Categories:   len(corpus.Categories()),
			Images:       corpus.Len(),
			NodeCapacity: bc.Tree.MaxFill,
			RepFraction:  bc.RepFraction,
			Hierarchy:    bc.Hierarchy,
		}
	}
	qz, err := quantizerOf(a.Quant)
	if err != nil {
		return nil, err
	}
	if qz != nil {
		a.Cfg.Quantized = true
	}
	return assembleLoaded(a.Cfg, corpus, structure, qz)
}

// LoadFile reconstructs a system from a file written by SaveFile.
func LoadFile(path string) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// vectorsOf extracts the dense vector table from a reconstructed structure.
func vectorsOf(s *rfs.Structure) []vec.Vector {
	out := make([]vec.Vector, s.Len())
	for i := range out {
		out[i] = s.Point(rstar.ItemID(i))
	}
	return out
}

// assembleLoaded wires a reconstructed structure without rebuilding it. A
// non-nil qz is the archive's persisted quantizer; a quantized config with
// no persisted quantizer (a v0/v1 archive saved before quantization existed)
// retrains one from the corpus store, so either way the loaded system scans
// exactly like the one that was saved.
func assembleLoaded(cfg Config, corpus *dataset.Corpus, structure *rfs.Structure, qz *store.Quantized) (*System, error) {
	cfg = cfg.withDefaults()
	if err := structure.Validate(); err != nil {
		return nil, fmt.Errorf("qdcbir: rfs: %w", err)
	}
	if err := corpus.Validate(); err != nil {
		return nil, fmt.Errorf("qdcbir: corpus: %w", err)
	}
	quant := attachQuantizer(&cfg, corpus, structure, qz)
	if cfg.Float32 {
		corpus.Store().MaterializeFloat32()
	}
	engine := newEngine(cfg, structure)
	return &System{cfg: cfg, corpus: corpus, rfs: structure, engine: engine, quant: quant}, nil
}
