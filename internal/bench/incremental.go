package bench

import (
	"context"
	"fmt"
	"time"

	"repro/gbbs"
	"repro/internal/xrand"
)

// IncrementalResult records one incremental-vs-static connectivity
// measurement: after a small edge batch lands on a graph, how long a static
// union-find over the whole updated graph takes versus advancing the
// previous labelling over just the batch (the update path of the versioned
// graph store). The incremental time should be orders of magnitude smaller —
// it is O(batch) instead of O(graph).
type IncrementalResult struct {
	// Scale is the log2 vertex count of the RMAT input.
	Scale int `json:"scale"`
	// BatchEdges is the number of edges in the inserted batch.
	BatchEdges int `json:"batch_edges"`
	// StaticNS is the time of a full union-find over the updated graph.
	StaticNS int64 `json:"static_ns"`
	// IncrementalNS is the time of advancing the previous labelling over the
	// batch alone.
	IncrementalNS int64 `json:"incremental_ns"`
	// Speedup is StaticNS / IncrementalNS.
	Speedup float64 `json:"speedup,omitempty"`
}

// MeasureIncremental builds an RMAT graph, seeds a canonical connectivity
// labelling, applies one batch of batchEdges random insertions, and times
// static recomputation against the incremental update. Both paths produce
// the same canonical labels (asserted), so the comparison is apples to
// apples. Panics on engine errors: inputs are programmer-specified.
func MeasureIncremental(scale, batchEdges, threads int, seed uint64) IncrementalResult {
	ctx := context.Background()
	eng := gbbs.New(gbbs.WithThreads(threads), gbbs.WithSeed(seed))
	defer eng.Close()
	g, err := eng.BuildCSR(ctx, gbbs.RMAT(scale, 8, seed), gbbs.Symmetrize())
	if err != nil {
		panic(fmt.Sprintf("bench: building incremental input: %v", err))
	}

	prev, err := eng.Connectivity(ctx, g)
	if err != nil {
		panic(fmt.Sprintf("bench: seeding labelling: %v", err))
	}
	n := uint32(g.N())
	batch := &gbbs.UpdateBatch{N: g.N(), U: make([]uint32, batchEdges), V: make([]uint32, batchEdges)}
	for i := range batch.U {
		batch.U[i] = xrand.Hash32(seed^0x9e37, uint64(2*i)) % n
		batch.V[i] = xrand.Hash32(seed^0x9e37, uint64(2*i+1)) % n
	}
	updated, _, err := eng.ApplyEdges(ctx, g, batch)
	if err != nil {
		panic(fmt.Sprintf("bench: applying batch: %v", err))
	}

	start := time.Now()
	static, err := eng.Connectivity(ctx, updated)
	staticDur := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("bench: static connectivity: %v", err))
	}

	start = time.Now()
	incr, err := eng.IncrementalConnectivity(ctx, prev, []*gbbs.UpdateBatch{batch})
	incrDur := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("bench: incremental connectivity: %v", err))
	}
	for v := range static {
		if static[v] != incr[v] {
			panic(fmt.Sprintf("bench: incremental labels diverge from static at vertex %d: %d != %d", v, incr[v], static[v]))
		}
	}

	res := IncrementalResult{
		Scale:         scale,
		BatchEdges:    batchEdges,
		StaticNS:      int64(staticDur),
		IncrementalNS: int64(incrDur),
	}
	if incrDur > 0 {
		res.Speedup = float64(staticDur) / float64(incrDur)
	}
	return res
}
