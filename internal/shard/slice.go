package shard

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"qdcbir/internal/atomicfile"
)

// Meta identifies a shard archive and the fleet it belongs to. A router
// refuses to assemble a fleet whose members disagree on any of these fields —
// most importantly CorpusSig (the slices must come from one build of one
// corpus) and Precision (float64 and float32 are distinct result modes whose
// distances must never be merged).
type Meta struct {
	ShardIndex     int     `json:"shard_index"`
	ShardCount     int     `json:"shard_count"`
	Images         int     `json:"images"`       // full corpus size
	LocalImages    int     `json:"local_images"` // rows stored on this shard
	Dim            int     `json:"dim"`
	Precision      string  `json:"precision"` // "f64" or "f32"
	Quantized      bool    `json:"quantized"`
	ArchiveVersion int     `json:"archive_version"` // embedded system archive version
	CorpusSig      uint64  `json:"corpus_sig"`      // signature of (corpus, topology, shard count)
	Boundary       float64 `json:"boundary"`        // §3.3 expansion threshold of the build
	DisplayCount   int     `json:"display_count"`
}

// shardMagic opens every shard archive: the qdcbir family byte, 'Q' 'S' for
// "shard", then a format version. Distinct from both the versioned system
// archive prefix (0xD1 'Q' 'D') and bare gob streams, so loaders can sniff
// the kind from the first four bytes.
var shardMagic = [4]byte{0xD1, 'Q', 'S', 1}

// IsArchiveHeader reports whether head (>= 4 bytes) begins a shard archive.
func IsArchiveHeader(head []byte) bool {
	return len(head) >= 4 && head[0] == shardMagic[0] && head[1] == shardMagic[1] &&
		head[2] == shardMagic[2] && head[3] == shardMagic[3]
}

// Archive is one shard's self-contained on-disk form: fleet identity, the
// full single-node topology, the local rows' global IDs and full-tree leaf
// assignments, and an embedded versioned system archive over the local subset
// (so a shard replica is also a complete standalone qdcbir system). Archives
// are produced by the root package's SliceShard and opened by OpenShard.
type Archive struct {
	Meta    Meta
	Topo    *Topology
	Globals []int    // global image IDs stored here, ascending
	LeafID  []uint64 // full-tree leaf node ID per local row
	Sys     []byte   // embedded qdcbir system archive of the local subset
}

// Write persists the archive: the 4-byte shard magic followed by the
// gob-encoded body.
func (a *Archive) Write(w io.Writer) error {
	if _, err := w.Write(shardMagic[:]); err != nil {
		return fmt.Errorf("shard: write header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(a); err != nil {
		return fmt.Errorf("shard: encode: %w", err)
	}
	return nil
}

// WriteFile persists the archive to a file.
func (a *Archive) WriteFile(path string) error {
	return atomicfile.WriteFile(path, a.Write)
}

// ReadArchive decodes a shard archive stream.
func ReadArchive(r io.Reader) (*Archive, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil || !IsArchiveHeader(head) {
		return nil, fmt.Errorf("shard: not a shard archive (header % x)", head)
	}
	if _, err := br.Discard(4); err != nil {
		return nil, fmt.Errorf("shard: read header: %w", err)
	}
	var a Archive
	if err := gob.NewDecoder(br).Decode(&a); err != nil {
		return nil, fmt.Errorf("shard: decode: %w", err)
	}
	return &a, nil
}

// ReadArchiveFile decodes a shard archive from a file.
func ReadArchiveFile(path string) (*Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadArchive(f)
}
