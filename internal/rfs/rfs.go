// Package rfs implements the paper's Relevance Feedback Support structure
// (§3.1): an R*-tree hierarchy over the image feature vectors whose every
// node is augmented with representative images, selected bottom-up with
// unsupervised k-means.
//
//   - At each leaf, the stored images are clustered into subclusters and the
//     image nearest each subcluster centre becomes a representative.
//   - At each internal node, the representatives of all children are
//     aggregated, clustered again, and the images nearest the new centres
//     become that node's representatives.
//
// Representative counts are proportional to cluster size; the distinct
// representative set is about RepFraction (default 5%) of the database, which
// is all the information relevance-feedback processing needs — the basis of
// the paper's client-side-feedback scalability argument (§4, §6).
package rfs

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"qdcbir/internal/bitset"
	"qdcbir/internal/disk"
	"qdcbir/internal/kmeans"
	"qdcbir/internal/kmtree"
	"qdcbir/internal/par"
	"qdcbir/internal/rstar"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// BuildConfig controls Structure construction.
type BuildConfig struct {
	// RepFraction is the fraction of each cluster selected as
	// representatives. The paper designates 5% of the database (§4).
	// Default 0.05.
	RepFraction float64
	// Tree carries the R*-tree fill factors. The default MaxFill of 100
	// matches the paper's node capacity.
	Tree rstar.Config
	// TargetFill is the STR bulk-load fill (default 93, which lands leaf
	// occupancy in the paper's 70–100 band). Ignored when Incremental.
	TargetFill int
	// Incremental builds the tree by one-at-a-time R* insertion instead of
	// bulk loading (an ablation; slower, slightly different clustering).
	// Equivalent to Hierarchy "insert".
	Incremental bool
	// Hierarchy selects the clustering backbone: "str" (default, STR
	// bulk-loaded R*-tree), "insert" (incremental R* insertion), or "kmeans"
	// (balanced hierarchical k-means — the paper notes the RFS structure
	// works over any hierarchical clustering, §3.1).
	Hierarchy string
	// Seed drives the k-means representative selection. Each node derives
	// its own generator from (Seed, node page ID), so selection is
	// reproducible and independent of the order nodes are processed in.
	Seed int64
	// KMeansIter bounds the Lloyd iterations per node. Default 25.
	KMeansIter int
	// Parallelism bounds the worker count of the build's parallel phases
	// (STR tiling sorts, per-node k-means representative selection). <= 0
	// uses one worker per CPU. The built structure is byte-identical at
	// every setting.
	Parallelism int
}

func (c BuildConfig) withDefaults() BuildConfig {
	if c.RepFraction <= 0 || c.RepFraction > 1 {
		c.RepFraction = 0.05
	}
	if c.TargetFill <= 0 {
		c.TargetFill = 93
	}
	if c.KMeansIter <= 0 {
		c.KMeansIter = 25
	}
	return c
}

// Structure is the built RFS structure.
//
// Concurrency invariant: once Build (or FromSnapshot/Refresh) returns, every
// read path — Reps, RandomReps' accounting aside, Point, LeafOf,
// SubtreeSize, ChildContaining, Contains, BoundaryRatio, ExpandForQuery,
// Tree and its searches — is safe for unsynchronized concurrent use: reads
// touch only immutable maps and slices. Mutations (Insert, Delete, Refresh)
// require external exclusion against both readers and other writers, exactly
// like the underlying rstar.Tree.
type Structure struct {
	cfg    BuildConfig
	tree   *rstar.Tree
	points []vec.Vector // indexed by ItemID (dense: IDs are 0..n-1)

	reps     map[disk.PageID][]rstar.ItemID
	leafOf   map[rstar.ItemID]*rstar.Node
	subSize  map[disk.PageID]int
	nodeByID map[disk.PageID]*rstar.Node
	allReps  []rstar.ItemID // distinct representative IDs (leaf level)
	repIsSet map[rstar.ItemID]bool

	// dynamic-maintenance state (see dynamic.go)
	stale   bool
	deleted *bitset.Set
}

// Build constructs the RFS structure over the corpus vectors. Image IDs are
// the vector indices. It panics on an empty corpus.
func Build(points []vec.Vector, cfg BuildConfig) *Structure {
	s, err := BuildCtx(context.Background(), points, cfg)
	if err != nil {
		panic(fmt.Sprintf("rfs: build: %v", err)) // unreachable: ctx never cancels
	}
	return s
}

// BuildCtx is Build with cancellation. The tree construction's sort phases
// and the per-node k-means representative selection run on
// cfg.Parallelism workers; the result is byte-identical at every worker
// count because each node's generator is derived from (Seed, page ID) rather
// than from a shared sequential stream.
func BuildCtx(ctx context.Context, points []vec.Vector, cfg BuildConfig) (*Structure, error) {
	if len(points) == 0 {
		panic("rfs: empty corpus")
	}
	cfg = cfg.withDefaults()
	dim := len(points[0])

	hierarchy := cfg.Hierarchy
	if hierarchy == "" {
		if cfg.Incremental {
			hierarchy = "insert"
		} else {
			hierarchy = "str"
		}
	}
	var tree *rstar.Tree
	switch hierarchy {
	case "insert":
		tree = rstar.New(dim, cfg.Tree)
		for i, p := range points {
			if i%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			tree.Insert(rstar.ItemID(i), p)
		}
	case "kmeans":
		fanout := cfg.Tree.MaxFill
		if fanout <= 0 {
			fanout = 100
		}
		snap := kmtree.Build(points, kmtree.Config{
			LeafCap:    cfg.TargetFill,
			Fanout:     fanout,
			Seed:       cfg.Seed,
			KMeansIter: cfg.KMeansIter,
		})
		var err error
		tree, err = rstar.FromSnapshot(snap)
		if err != nil {
			panic(fmt.Sprintf("rfs: kmeans hierarchy: %v", err))
		}
	case "str":
		items := make([]rstar.Item, len(points))
		for i, p := range points {
			items[i] = rstar.Item{ID: rstar.ItemID(i), Point: p}
		}
		var err error
		tree, err = rstar.BulkLoadCtx(ctx, dim, cfg.Tree, items, cfg.TargetFill, cfg.Parallelism)
		if err != nil {
			return nil, err
		}
	default:
		panic(fmt.Sprintf("rfs: unknown hierarchy %q", hierarchy))
	}
	s := &Structure{
		cfg:    cfg,
		tree:   tree,
		points: points,
	}
	s.index()
	if err := s.selectRepresentatives(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// index builds the item→leaf map, per-node subtree sizes, and the page-ID
// node index (session restores resolve persisted node IDs through it).
func (s *Structure) index() {
	s.leafOf = make(map[rstar.ItemID]*rstar.Node, len(s.points))
	s.subSize = make(map[disk.PageID]int)
	s.nodeByID = make(map[disk.PageID]*rstar.Node)
	var walk func(n *rstar.Node) int
	walk = func(n *rstar.Node) int {
		s.nodeByID[n.ID()] = n
		size := 0
		if n.IsLeaf() {
			for _, it := range n.Items() {
				s.leafOf[it.ID] = n
			}
			size = len(n.Items())
		} else {
			for _, c := range n.Children() {
				size += walk(c)
			}
		}
		s.subSize[n.ID()] = size
		return size
	}
	walk(s.tree.Root())
}

// nodeSeed derives one node's k-means generator seed from the build seed
// and the node's page ID via a splitmix64-style mix, decorrelating nodes
// while keeping selection independent of processing order — the property
// that lets serial and parallel builds produce identical representatives.
func nodeSeed(seed int64, id disk.PageID) int64 {
	z := uint64(seed) ^ (0x9e3779b97f4a7c15 * (uint64(id) + 1))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// selectRepresentatives performs the paper's bottom-up two-stage selection.
// Nodes of one level have no data dependencies on each other (a node's pool
// is its own items or its children's already-chosen representatives), so
// each level is clustered on cfg.Parallelism workers, leaves first. Results
// are committed serially in tree order, keeping allReps deterministic.
func (s *Structure) selectRepresentatives(ctx context.Context) error {
	s.reps = make(map[disk.PageID][]rstar.ItemID)
	s.repIsSet = make(map[rstar.ItemID]bool)

	// Group nodes by level (leaves = 0), preserving depth-first order within
	// each level.
	height := s.tree.Height()
	levels := make([][]*rstar.Node, height)
	s.tree.Walk(func(n *rstar.Node, level int) {
		levels[level] = append(levels[level], n)
	})

	for _, nodes := range levels {
		chosen := make([][]rstar.ItemID, len(nodes))
		err := par.Do(ctx, len(nodes), s.cfg.Parallelism, func(i int) error {
			n := nodes[i]
			var pool []rstar.ItemID
			if n.IsLeaf() {
				for _, it := range n.Items() {
					pool = append(pool, it.ID)
				}
			} else {
				for _, c := range n.Children() {
					pool = append(pool, s.reps[c.ID()]...)
				}
			}
			if len(pool) == 0 {
				return nil
			}
			k := s.repTarget(n, len(pool))
			rng := rand.New(rand.NewSource(nodeSeed(s.cfg.Seed, n.ID())))
			chosen[i] = s.clusterSelect(pool, k, rng)
			return nil
		})
		if err != nil {
			return err
		}
		for i, n := range nodes {
			if chosen[i] == nil {
				continue
			}
			s.reps[n.ID()] = chosen[i]
			if n.IsLeaf() {
				for _, id := range chosen[i] {
					if !s.repIsSet[id] {
						s.repIsSet[id] = true
						s.allReps = append(s.allReps, id)
					}
				}
			}
		}
	}
	return nil
}

// repTarget returns how many representatives node n keeps, proportional to
// its subtree size and clamped to the available pool.
func (s *Structure) repTarget(n *rstar.Node, poolSize int) int {
	k := int(math.Ceil(s.cfg.RepFraction * float64(s.subSize[n.ID()])))
	if k < 1 {
		k = 1
	}
	if k > poolSize {
		k = poolSize
	}
	return k
}

// clusterSelect k-means-clusters the pooled images and returns the image
// nearest each cluster centre ("one or more images nearest its center are
// selected as the representative images", §3.1).
func (s *Structure) clusterSelect(pool []rstar.ItemID, k int, rng *rand.Rand) []rstar.ItemID {
	if k >= len(pool) {
		out := make([]rstar.ItemID, len(pool))
		copy(out, pool)
		return out
	}
	// Near-degenerate case (k within 10% of the pool): clustering would make
	// almost every point its own centroid at quadratic cost, and any
	// subsampling risks dropping the only representative of a small
	// subconcept — which would make that subconcept permanently unfindable
	// during browsing. Keep the whole pool instead; the overshoot is at most
	// ~11% and matches the paper's observation that the root's candidate pool
	// is "much larger than" one display (§4). Upper RFS levels, whose rep
	// target is within rounding of the sum of their children's, always hit
	// this path.
	if 10*k >= 9*len(pool) {
		out := make([]rstar.ItemID, len(pool))
		copy(out, pool)
		return out
	}
	pts := make([]vec.Vector, len(pool))
	for i, id := range pool {
		pts[i] = s.points[id]
	}
	r := kmeans.Cluster(pts, k, kmeans.Config{MaxIter: s.cfg.KMeansIter}, rng)
	idxs := kmeans.NearestToCentroids(pts, r)
	out := make([]rstar.ItemID, 0, len(idxs))
	seen := make(map[rstar.ItemID]bool, len(idxs))
	for _, i := range idxs {
		if id := pool[i]; !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// Tree exposes the underlying R*-tree.
func (s *Structure) Tree() *rstar.Tree { return s.tree }

// EnableQuantizedScan trains and installs the SQ8 quantized-scan path on the
// structure's tree (see rstar.SetQuantizedScoring). Like structure
// construction, it requires exclusion against concurrent searches.
func (s *Structure) EnableQuantizedScan() error { return s.tree.SetQuantizedScoring(true) }

// AdoptQuantized installs a persisted store-ordered quantizer on the tree
// (archive restores use this to skip retraining; see rstar.AdoptQuantized).
func (s *Structure) AdoptQuantized(q *store.Quantized) error { return s.tree.AdoptQuantized(q) }

// EnableFloat32Scan activates the tree's float32 sweep path (see
// rstar.SetFloat32Scoring): the leaf slab narrows to a float32 mirror once,
// and the tree's unweighted k-NN searches run at float32 precision.
func (s *Structure) EnableFloat32Scan() { s.tree.SetFloat32Scoring(true) }

// Root returns the hierarchy root.
func (s *Structure) Root() *rstar.Node { return s.tree.Root() }

// Len returns the corpus size.
func (s *Structure) Len() int { return len(s.points) }

// Point returns the feature vector of an image (shared; do not modify).
func (s *Structure) Point(id rstar.ItemID) vec.Vector { return s.points[int(id)] }

// Reps returns the representative images of a node (shared; do not modify).
// Reading a node's representative list models one page access and is reported
// to acc (pass nil to skip accounting) — this is the I/O the paper counts for
// relevance feedback processing (§5.2.2).
func (s *Structure) Reps(n *rstar.Node, acc disk.Accounter) []rstar.ItemID {
	if acc != nil {
		acc.Access(n.ID())
	}
	return s.reps[n.ID()]
}

// RepCount returns the number of distinct representative images.
func (s *Structure) RepCount() int { return len(s.allReps) }

// AllReps returns the distinct representative IDs (shared; do not modify).
func (s *Structure) AllReps() []rstar.ItemID { return s.allReps }

// IsRep reports whether an image is a representative anywhere in the
// hierarchy.
func (s *Structure) IsRep(id rstar.ItemID) bool { return s.repIsSet[id] }

// LeafOf returns the leaf node storing the image.
func (s *Structure) LeafOf(id rstar.ItemID) *rstar.Node { return s.leafOf[id] }

// NodeByID resolves a node page ID anywhere in the hierarchy, or nil for an
// unknown ID. Session restores use this to rebind persisted assignments.
func (s *Structure) NodeByID(id disk.PageID) *rstar.Node { return s.nodeByID[id] }

// SubtreeSize returns the number of images stored under n.
func (s *Structure) SubtreeSize(n *rstar.Node) int { return s.subSize[n.ID()] }

// ChildContaining returns the child of n whose subtree stores the image, or
// nil when n is a leaf or the image is not under n. The query decomposition
// descent uses this to map a marked representative to the subcluster it came
// from (§3.2).
func (s *Structure) ChildContaining(n *rstar.Node, id rstar.ItemID) *rstar.Node {
	if n.IsLeaf() {
		return nil
	}
	leaf := s.leafOf[id]
	if leaf == nil {
		return nil
	}
	// Walk up from the leaf until the parent is n.
	for cur := leaf; cur != nil; cur = cur.Parent() {
		if cur.Parent() == n {
			return cur
		}
	}
	return nil
}

// Contains reports whether the image is stored in n's subtree.
func (s *Structure) Contains(n *rstar.Node, id rstar.ItemID) bool {
	for cur := s.leafOf[id]; cur != nil; cur = cur.Parent() {
		if cur == n {
			return true
		}
	}
	return false
}

// BoundaryRatio returns the paper's §3.3 boundary statistic for a point in a
// node: the distance from the node centre divided by the node diagonal. A
// zero-diagonal (single-point) node yields 0 when the point coincides with
// the centre and +Inf otherwise.
func (s *Structure) BoundaryRatio(n *rstar.Node, p vec.Vector) float64 {
	r := n.Rect()
	d := r.Diagonal()
	dist := vec.L2(p, r.Center())
	if d == 0 {
		if dist == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return dist / d
}

// ExpandForQuery implements the §3.3 search-area expansion: starting from the
// node, while any query point's boundary ratio exceeds the threshold, move to
// the parent; repeat at each level. The paper's empirical threshold is 0.4
// for the 15,000-image corpus.
func (s *Structure) ExpandForQuery(n *rstar.Node, queryPoints []vec.Vector, threshold float64) *rstar.Node {
	cur := n
	for cur.Parent() != nil {
		nearBoundary := false
		for _, q := range queryPoints {
			if s.BoundaryRatio(cur, q) > threshold {
				nearBoundary = true
				break
			}
		}
		if !nearBoundary {
			break
		}
		cur = cur.Parent()
	}
	return cur
}

// RandomReps returns up to n representatives of the node drawn without
// replacement — the GUI's "Random" browse function (§4). Accounting works as
// in Reps.
func (s *Structure) RandomReps(node *rstar.Node, n int, rng *rand.Rand, acc disk.Accounter) []rstar.ItemID {
	all := s.Reps(node, acc)
	if n >= len(all) {
		out := make([]rstar.ItemID, len(all))
		copy(out, all)
		return out
	}
	perm := rng.Perm(len(all))
	out := make([]rstar.ItemID, n)
	for i := 0; i < n; i++ {
		out[i] = all[perm[i]]
	}
	return out
}

// Validate checks RFS invariants beyond the underlying tree's: every node has
// at least one representative, every representative of a node is stored in
// that node's subtree, and leaf representatives are leaf members.
func (s *Structure) Validate() error {
	if s.stale {
		return fmt.Errorf("rfs: structure is stale after mutations; call Refresh")
	}
	if err := s.tree.CheckInvariants(); err != nil {
		return fmt.Errorf("rfs: tree: %w", err)
	}
	var check func(n *rstar.Node) error
	check = func(n *rstar.Node) error {
		reps := s.reps[n.ID()]
		if s.subSize[n.ID()] > 0 && len(reps) == 0 {
			return fmt.Errorf("rfs: node %d has no representatives", n.ID())
		}
		for _, id := range reps {
			if !s.Contains(n, id) {
				return fmt.Errorf("rfs: node %d representative %d outside subtree", n.ID(), id)
			}
		}
		for _, c := range n.Children() {
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(s.tree.Root())
}
