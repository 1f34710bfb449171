package shard

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/gbbs"
)

// Coordinator executes registered algorithms over a partitioned graph. It
// owns one gbbs.Engine per shard (each with a private scheduler and thread
// budget), a K-wide control engine that launches the shard-local phases in
// parallel, and a merge engine for the data-parallel gather steps. Run
// scatters a gbbs.Request to every shard engine's registry dispatch and
// merges the shard results with the algorithm's typed merge step.
//
// A Coordinator is safe for concurrent Run calls (each run only reads the
// immutable decomposition) and is closed with Close when no longer needed.
type Coordinator struct {
	pg      *PartitionedGraph
	engines []*gbbs.Engine
	// control fans the K shard-local phases out with grain 1 (the default
	// grain heuristic would serialize a K-wide loop); merge runs the
	// data-parallel gather steps on the full thread budget.
	control *gbbs.Engine
	merge   *gbbs.Engine
	seed    uint64
}

// Option configures a Coordinator under construction; see WithShardThreads
// and WithSeed.
type Option func(*coordConfig)

type coordConfig struct {
	shardThreads int
	seed         uint64
}

// WithShardThreads sets the worker count of every per-shard engine. The
// default divides runtime.NumCPU() evenly across shards (at least 1 per
// shard).
func WithShardThreads(p int) Option { return func(c *coordConfig) { c.shardThreads = p } }

// WithSeed sets the seed used when a request leaves Request.Seed nil,
// mirroring gbbs.WithSeed. The default is gbbs.DefaultSeed.
func WithSeed(seed uint64) Option { return func(c *coordConfig) { c.seed = seed } }

// NewCoordinator splits g under part on eng's scheduler and returns a
// Coordinator over the decomposition. eng is only used for the split; the
// coordinator creates and owns its shard, control and merge engines.
func NewCoordinator(ctx context.Context, eng *gbbs.Engine, g *gbbs.CSR, part gbbs.Partition, opts ...Option) (*Coordinator, error) {
	pt, err := NewPartitioner(part)
	if err != nil {
		return nil, err
	}
	pg, err := pt.Split(ctx, eng, g)
	if err != nil {
		return nil, err
	}
	return NewCoordinatorFrom(pg, opts...)
}

// NewCoordinatorFrom wraps an existing decomposition (from
// Partitioner.Split) in a Coordinator, creating the per-shard, control and
// merge engines.
func NewCoordinatorFrom(pg *PartitionedGraph, opts ...Option) (*Coordinator, error) {
	if err := pg.Part.Validate(); err != nil {
		return nil, err
	}
	k := pg.Part.Shards
	if len(pg.Subs) != k || len(pg.Cuts) != k || len(pg.Owned) != k || len(pg.Owner) != pg.Graph.N() {
		return nil, fmt.Errorf("shard: decomposition shape does not match partition %s", pg.Part)
	}
	c := coordConfig{seed: gbbs.DefaultSeed}
	for _, o := range opts {
		o(&c)
	}
	if c.shardThreads < 1 {
		c.shardThreads = runtime.NumCPU() / k
		if c.shardThreads < 1 {
			c.shardThreads = 1
		}
	}
	co := &Coordinator{
		pg:      pg,
		engines: make([]*gbbs.Engine, k),
		control: gbbs.New(gbbs.WithThreads(k), gbbs.WithGrain(1), gbbs.WithSeed(c.seed)),
		merge:   gbbs.New(gbbs.WithSeed(c.seed)),
		seed:    c.seed,
	}
	for i := range co.engines {
		co.engines[i] = gbbs.New(gbbs.WithThreads(c.shardThreads), gbbs.WithSeed(c.seed))
	}
	return co, nil
}

// Close releases every engine the coordinator owns. Like Engine.Close it is
// idempotent and non-blocking; in-flight runs finish correctly, just without
// parallel speedup.
func (c *Coordinator) Close() {
	for _, e := range c.engines {
		e.Close()
	}
	c.control.Close()
	c.merge.Close()
}

// Graph returns the full (unpartitioned) graph the coordinator serves.
func (c *Coordinator) Graph() *gbbs.CSR { return c.pg.Graph }

// Partition returns the partition the coordinator's decomposition uses.
func (c *Coordinator) Partition() gbbs.Partition { return c.pg.Part }

// ShardRun reports one shard's local phase of a sharded run.
type ShardRun struct {
	// Shard is the shard index in [0, K).
	Shard int `json:"shard"`
	// Elapsed is the wall-clock time of the shard-local phase. For
	// round-based algorithms (BFS) it accumulates the shard's share of
	// every round.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Summary is the shard-local result summary, when the local phase runs
	// a registered algorithm ("3 components, largest 12" on the shard's
	// internal subgraph); empty for custom phases.
	Summary string `json:"summary,omitempty"`
}

// Report describes how a sharded run executed: the per-shard local phases,
// the merge step, and (for frontier-exchange algorithms) the number of
// rounds. It accompanies the merged gbbs.Result, which stays comparable to
// a single-engine run.
type Report struct {
	// Partition is the partition the run executed under.
	Partition gbbs.Partition `json:"partition"`
	// Shards holds one entry per shard-local phase, in shard order.
	Shards []ShardRun `json:"shards"`
	// MergeElapsed is the wall-clock time of the gather/merge step.
	MergeElapsed time.Duration `json:"merge_elapsed_ns"`
	// Rounds counts frontier-exchange rounds for iterative algorithms
	// (BFS); 0 for single-exchange merges.
	Rounds int `json:"rounds,omitempty"`
}

// ShardStat describes one shard of the decomposition for operators:
// ownership counts, edge split and approximate resident bytes. The serving
// layer surfaces these on /healthz so partition skew is visible.
type ShardStat struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Owned is the number of vertices the shard owns.
	Owned int `json:"owned"`
	// InternalEdges is the number of stored edges internal to the shard.
	InternalEdges int `json:"internal_edges"`
	// BoundaryEdges is the number of stored boundary edges owned by the
	// shard (counted from its side).
	BoundaryEdges int `json:"boundary_edges"`
	// ApproxBytes estimates the shard's resident bytes (offsets, adjacency
	// and weights of both its graphs).
	ApproxBytes int64 `json:"approx_bytes"`
}

// Stats returns per-shard decomposition statistics, in shard order.
func (c *Coordinator) Stats() []ShardStat {
	out := make([]ShardStat, len(c.engines))
	for i := range out {
		out[i] = ShardStat{
			Shard:         i,
			Owned:         len(c.pg.Owned[i]),
			InternalEdges: c.pg.Subs[i].M(),
			BoundaryEdges: c.pg.Cuts[i].M(),
			ApproxBytes:   approxCSRBytes(c.pg.Subs[i]) + approxCSRBytes(c.pg.Cuts[i]),
		}
	}
	return out
}

// approxCSRBytes estimates the resident size of one shard graph: an offsets
// array over the global ID space plus adjacency (and weights when present).
func approxCSRBytes(g *gbbs.CSR) int64 {
	b := int64(g.N()+1) * 8
	perEdge := int64(4)
	if g.Weighted() {
		perEdge += 4
	}
	return b + int64(g.M())*perEdge
}

// Key returns the canonical fingerprint of a sharded run: Request.Key with
// the coordinator's partition folded in. Two runs differing only in shard
// count or strategy get distinct keys, so a result cache never serves a
// sharded result for an unsharded request (or across shard counts) even
// when the merged values are equal.
func (c *Coordinator) Key(name string, req gbbs.Request) (string, error) {
	a, ok := gbbs.Lookup(name)
	if !ok {
		return "", fmt.Errorf("shard: unknown algorithm %q", name)
	}
	part := c.pg.Part
	req.Partition = &part
	return req.Key(a)
}

// merger is one algorithm's sharded execution: scatter, shard-local phase,
// typed merge. It fills Result.Summary/Value and the report's shard and
// merge timings; Run fills the remaining Result fields.
type merger func(c *Coordinator, ctx context.Context, req gbbs.Request, rep *Report) (gbbs.Result, error)

// mergers maps registry names to their sharded execution. See the package
// comment for the per-algorithm merge contracts.
var mergers = map[string]merger{
	"incrcc":     (*Coordinator).runConnectivity,
	"cc":         (*Coordinator).runConnectivity,
	"bfs":        (*Coordinator).runBFS,
	"tc":         (*Coordinator).runTriangleCount,
	"mm":         (*Coordinator).runMaximalMatching,
	"spanforest": (*Coordinator).runSpanningForest,
}

// Mergeable reports whether the named algorithm has a sharded execution —
// i.e. whether Coordinator.Run accepts it.
func Mergeable(name string) bool {
	_, ok := mergers[name]
	return ok
}

// MergeableAlgorithms returns the registry names Coordinator.Run accepts,
// sorted.
func MergeableAlgorithms() []string {
	out := make([]string, 0, len(mergers))
	for name := range mergers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes the named algorithm over the partitioned graph by
// scatter-gather and returns the merged result plus an execution report.
// The request's graph fields (Graph, Input, GraphID) are ignored — the
// coordinator always runs on its own decomposition — while Seed and Opts
// apply exactly as in Engine.Run (a nil Seed resolves to the coordinator's
// default, recorded in Result.Seed).
//
// Merged results relate to the single-engine run as follows: bfs and tc are
// byte-identical; cc and incrcc are byte-identical (the canonical
// minimum-label form); spanforest returns a valid rooted spanning forest
// with the byte-identical summary; mm returns a valid maximal matching
// whose size may depend on the partition.
// Every merged result is deterministic in (graph, partition, seed, params),
// independent of thread count.
func (c *Coordinator) Run(ctx context.Context, name string, req gbbs.Request) (gbbs.Result, *Report, error) {
	m, ok := mergers[name]
	if !ok {
		if _, registered := gbbs.Lookup(name); !registered {
			return gbbs.Result{}, nil, fmt.Errorf("shard: unknown algorithm %q", name)
		}
		return gbbs.Result{}, nil, fmt.Errorf("shard: algorithm %q has no sharded merge step (mergeable: %v)", name, MergeableAlgorithms())
	}
	a, _ := gbbs.Lookup(name)
	if _, err := a.ResolveOpts(req.Opts); err != nil {
		return gbbs.Result{}, nil, err
	}
	seed := c.seed
	if req.Seed != nil {
		seed = *req.Seed
	}
	req.Seed = &seed
	req.Graph = nil
	req.Input = nil
	if a.NeedsSource && int(req.Source) >= c.pg.Graph.N() {
		return gbbs.Result{}, nil, fmt.Errorf("shard: %s: source %d out of range [0, %d)", name, req.Source, c.pg.Graph.N())
	}
	rep := &Report{Partition: c.pg.Part, Shards: make([]ShardRun, c.pg.Part.Shards)}
	for i := range rep.Shards {
		rep.Shards[i].Shard = i
	}
	start := time.Now()
	res, err := m(c, ctx, req, rep)
	if err != nil {
		return gbbs.Result{}, nil, err
	}
	res.Elapsed = time.Since(start)
	res.Seed = seed
	res.Graph = c.pg.Graph
	return res, rep, nil
}

// scatter runs the named algorithm on every shard's internal subgraph in
// parallel — one registry-dispatched gbbs.Request per shard engine, the
// exact request shape the serving layer serializes, so a follow-on
// deployment can move this fan-out over the wire unchanged. Per-shard
// elapsed times and summaries are recorded in rep; the per-shard results
// are returned in shard order.
func (c *Coordinator) scatter(ctx context.Context, name string, req gbbs.Request, rep *Report) ([]gbbs.Result, error) {
	k := len(c.engines)
	results := make([]gbbs.Result, k)
	errs := make([]error, k)
	err := c.control.Exec(ctx, func(b *gbbs.Builder) {
		b.Parallel(k, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				r := req
				r.Graph = c.pg.Subs[i]
				results[i], errs[i] = c.engines[i].Run(ctx, name, r)
			}
		})
	})
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("shard %d: %w", i, e)
		}
	}
	for i, r := range results {
		rep.Shards[i].Elapsed = r.Elapsed
		rep.Shards[i].Summary = r.Summary
	}
	return results, nil
}
