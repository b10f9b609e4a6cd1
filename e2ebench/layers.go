package main

import (
	"context"
	"math"
	"time"

	"qdcbir/internal/disk"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// This file holds the replay helpers shared by the workloads: flat sweeps
// that give the tree descent its baseline, and the multi-query kernel
// against the same queries swept one at a time.

// kernelReps is how many times a kernel comparison repeats; the median ratio
// is reported.
const kernelReps = 7

// subtreeSlab copies the rows stored under n into one row-major slab.
func subtreeSlab(n *rstar.Node) []float64 {
	var out []float64
	var walk func(n *rstar.Node)
	walk = func(n *rstar.Node) {
		if n.IsLeaf() {
			for _, it := range n.Items() {
				out = append(out, it.Point...)
			}
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// flatSweep is the exact flat baseline for one k-NN: the float64 kernel over
// every row of slab, then top-k selection. It returns the whole time and the
// kernel's share.
func flatSweep(q vec.Vector, slab []float64, k int) (total, kernel time.Duration) {
	out := make([]float64, len(slab)/len(q))
	t0 := time.Now()
	vec.SquaredDistsTo(q, slab, out)
	kernel = time.Since(t0)
	top := vec.NewTopK(k)
	for i, d := range out {
		top.Add(d, i)
	}
	return time.Since(t0), kernel
}

// flatSweep32 is flatSweep in float32.
func flatSweep32(q []float32, slab []float32, k int) (total, kernel time.Duration) {
	out := make([]float32, len(slab)/len(q))
	t0 := time.Now()
	vec.SquaredDistsTo32(q, slab, out)
	kernel = time.Since(t0)
	top := vec.NewTopK32(k)
	for i, d := range out {
		top.Add(d, i)
	}
	return time.Since(t0), kernel
}

// widthOf turns an observed mean batch width into the multi-query width the
// kernel comparison runs at (at least 2, at most 16).
func widthOf(observed float64) int {
	w := int(math.Round(observed))
	if w < 2 {
		w = 2
	}
	if w > 16 {
		w = 16
	}
	return w
}

// ratioOf times multi and serial kernelReps times each, alternating, and
// returns the median of multi/serial.
func ratioOf(multi, serial func()) float64 {
	var rs []float64
	for i := 0; i < kernelReps; i++ {
		t0 := time.Now()
		multi()
		a := time.Since(t0)
		t0 = time.Now()
		serial()
		b := time.Since(t0)
		if b > 0 {
			rs = append(rs, float64(a)/float64(b))
		}
	}
	return median(rs)
}

// multiOverSerial64 compares one width-m multi-query float64 sweep of slab
// with m single sweeps; the queries are the slab's first m rows.
func multiOverSerial64(slab []float64, dim, m int) float64 {
	rows := len(slab) / dim
	if rows < m {
		return 0
	}
	qs := slab[:m*dim]
	out := make([]float64, m*rows)
	return ratioOf(
		func() { vec.SquaredDistsToMulti(qs, m, slab, out) },
		func() {
			for j := 0; j < m; j++ {
				vec.SquaredDistsTo(qs[j*dim:(j+1)*dim], slab, out[j*rows:(j+1)*rows])
			}
		})
}

// multiOverSerial32 is multiOverSerial64 in float32.
func multiOverSerial32(slab []float32, dim, m int) float64 {
	rows := len(slab) / dim
	if rows < m {
		return 0
	}
	qs := slab[:m*dim]
	out := make([]float32, m*rows)
	return ratioOf(
		func() { vec.SquaredDistsToMulti32(qs, m, slab, out) },
		func() {
			for j := 0; j < m; j++ {
				vec.SquaredDistsTo32(qs[j*dim:(j+1)*dim], slab, out[j*rows:(j+1)*rows])
			}
		})
}

// multiOverSerialU8 is multiOverSerial64 over SQ8 codes.
func multiOverSerialU8(codes []uint8, dim, m int) float64 {
	rows := len(codes) / dim
	if rows < m {
		return 0
	}
	qs := codes[:m*dim]
	out := make([]int32, m*rows)
	return ratioOf(
		func() { vec.Uint8SquaredDistsToMulti(qs, m, codes, out) },
		func() {
			for j := 0; j < m; j++ {
				vec.Uint8SquaredDistsTo(qs[j*dim:(j+1)*dim], codes, out[j*rows:(j+1)*rows])
			}
		})
}

// batchVsSerial times one f64 batch descent of qs at node against the same
// descents run one by one.
func batchVsSerial(ctx context.Context, tree *rstar.Tree, node *rstar.Node, qs []vec.Vector, ks []int) (batch, serial time.Duration, err error) {
	accs := make([]disk.Accounter, len(qs))
	sts := make([]*rstar.SearchStats, len(qs))
	for i := range qs {
		accs[i] = &disk.Counter{}
		sts[i] = &rstar.SearchStats{}
	}
	t0 := time.Now()
	if _, err := tree.KNNBatchFromStatsCtx(ctx, node, qs, ks, accs, sts); err != nil {
		return 0, 0, err
	}
	batch = time.Since(t0)
	t0 = time.Now()
	for i, q := range qs {
		if _, err := tree.KNNFromStatsCtx(ctx, node, q, ks[i], &disk.Counter{}, nil); err != nil {
			return 0, 0, err
		}
	}
	return batch, time.Since(t0), nil
}
