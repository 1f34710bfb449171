package gbbs

import (
	"context"
	"runtime"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Engine is an isolated execution scope for the benchmark's algorithms: it
// owns a private scheduler (a persistent worker pool plus a worker count and
// grain) and a default seed. Engines are cheap to create and safe for
// concurrent use, and two engines never share parallelism state — a server
// can run one engine per tenant or per request class, each with its own
// thread budget.
//
// The engine's worker pool starts lazily on the first parallel operation and
// is reused across calls: algorithm rounds, builds and repeated Run
// invocations wake parked resident workers instead of spawning goroutines.
// Close releases the pool; an engine that is never closed auto-parks — its
// idle workers exit on their own after a short idle timeout, so dropping an
// engine without Close leaks nothing.
//
// Every algorithm method takes a context.Context. The context is checked
// between algorithm rounds; once it is cancelled or past its deadline the
// method returns ctx.Err() promptly with a zero result. Passing
// context.Background() (or nil) disables cancellation checks entirely.
type Engine struct {
	sched *parallel.Scheduler
	seed  uint64
}

// Close releases the engine's worker pool: parked workers exit immediately
// and busy ones finish their current task first. Close is idempotent and
// non-blocking. The engine stays usable afterwards — parallel operations
// simply run sequentially on the calling goroutine — so a racing in-flight
// request completes correctly, just without parallel speedup. Close is
// optional: an idle engine's workers park and then exit on their own.
func (e *Engine) Close() { e.sched.Close() }

// Option configures an Engine under construction; see WithThreads, WithSeed
// and WithGrain.
type Option func(*engineConfig)

type engineConfig struct {
	threads int
	grain   int
	seed    uint64
}

// WithThreads sets the number of worker goroutines the engine's scheduler
// uses. p < 1 selects 1 (fully sequential, zero scheduling overhead — how
// the paper's single-thread columns are measured). The default is
// runtime.NumCPU().
func WithThreads(p int) Option { return func(c *engineConfig) { c.threads = p } }

// WithSeed sets the seed the engine's randomized algorithms (Connectivity,
// MIS, SCC, ...) use by default. For a fixed seed every algorithm is
// deterministic, independent of the thread count. The default is
// DefaultSeed (1).
func WithSeed(seed uint64) Option { return func(c *engineConfig) { c.seed = seed } }

// WithGrain fixes the scheduler's default grain (elements per scheduled
// block) for parallel loops that do not specify one. g <= 0 keeps the
// automatic heuristic (the default), which targets 8 blocks per worker with
// a 512-element floor.
func WithGrain(g int) Option { return func(c *engineConfig) { c.grain = g } }

// New creates an Engine from the given options:
//
//	eng := gbbs.New(gbbs.WithThreads(8), gbbs.WithSeed(42))
func New(opts ...Option) *Engine {
	c := engineConfig{threads: runtime.NumCPU(), seed: DefaultSeed}
	for _, o := range opts {
		o(&c)
	}
	return &Engine{sched: parallel.NewWithGrain(c.threads, c.grain), seed: c.seed}
}

// Threads reports the engine's worker count.
func (e *Engine) Threads() int { return e.sched.Workers() }

// Seed reports the engine's default seed.
func (e *Engine) Seed() uint64 { return e.seed }

// exec runs f on a per-call scheduler scoped to ctx, translating the
// scheduler's cancellation unwind back into ctx.Err().
func (e *Engine) exec(ctx context.Context, f func(s *parallel.Scheduler)) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err = ctx.Err(); err != nil {
		return err
	}
	s := e.sched.Attach(ctx)
	defer parallel.RecoverStop(&err)
	f(s)
	return nil
}

// BFS returns hop distances from src; O(m) work, O(diam·log n) depth.
func (e *Engine) BFS(ctx context.Context, g Graph, src uint32) (dist []uint32, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { dist = core.BFS(s, g, src) })
	return
}

// WeightedBFS solves integral-weight SSSP (wBFS / Julienne); O(m) expected
// work. Weights must be >= 1.
func (e *Engine) WeightedBFS(ctx context.Context, g Graph, src uint32) (dist []uint32, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { dist = core.WeightedBFS(s, g, src) })
	return
}

// DeltaStepping solves positive-integer-weight SSSP with Meyer-Sanders
// Δ-stepping. delta <= 0 selects the average edge weight.
func (e *Engine) DeltaStepping(ctx context.Context, g Graph, src uint32, delta int32) (dist []uint32, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { dist = core.DeltaStepping(s, g, src, delta) })
	return
}

// BellmanFord solves general-weight SSSP; negCycle reports a reachable
// negative cycle (whose vertices get NegInfDist distances).
func (e *Engine) BellmanFord(ctx context.Context, g Graph, src uint32) (dist []int64, negCycle bool, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { dist, negCycle = core.BellmanFord(s, g, src) })
	return
}

// BC returns single-source betweenness-centrality dependencies from src.
func (e *Engine) BC(ctx context.Context, g Graph, src uint32) (dep []float64, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { dep = core.BC(s, g, src) })
	return
}

// LDD computes a (2β, O(log n/β)) low-diameter decomposition.
func (e *Engine) LDD(ctx context.Context, g Graph, beta float64) (labels []uint32, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { labels = core.LDD(s, g, beta, e.seed) })
	return
}

// Connectivity labels connected components with the concurrent
// min-hooking union-find (Simsiri et al.), treating directed edges as
// undirected. The labelling is canonical — each vertex gets the minimum
// vertex id of its component, independent of seed and thread count — so it
// is a valid prev for IncrementalConnectivity (and CCState.Labels).
// O(m log_{1+m/n} n) work.
func (e *Engine) Connectivity(ctx context.Context, g Graph) (labels []uint32, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { labels = core.UnionFindCC(s, g) })
	return
}

// SpanningForest returns a rooted spanning forest (parents, levels, roots).
func (e *Engine) SpanningForest(ctx context.Context, g Graph) (parent, level, roots []uint32, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) {
		parent, level, roots = core.SpanningForest(s, g)
	})
	return
}

// Biconnectivity computes the Tarjan-Vishkin biconnectivity query structure.
func (e *Engine) Biconnectivity(ctx context.Context, g Graph) (b *Bicc, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { b = core.Biconnectivity(s, g) })
	return
}

// SCC labels strongly connected components of a directed graph.
func (e *Engine) SCC(ctx context.Context, g Graph, opt SCCOpts) (labels []uint32, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { labels = core.SCC(s, g, e.seed, opt) })
	return
}

// MSF computes a minimum spanning forest of a weighted symmetric graph,
// returning the forest edges and total weight.
func (e *Engine) MSF(ctx context.Context, g Graph) (forest []WEdge, weight int64, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { forest, weight = core.MSF(s, g) })
	return
}

// MIS computes a maximal independent set (the greedy set over a random
// permutation) with the rootset-based algorithm.
func (e *Engine) MIS(ctx context.Context, g Graph) (in []bool, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { in = core.MIS(s, g, e.seed) })
	return
}

// MISPrefix computes the same maximal independent set with the prefix-based
// baseline algorithm the paper compares against.
func (e *Engine) MISPrefix(ctx context.Context, g Graph) (in []bool, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { in = core.MISPrefix(s, g, e.seed) })
	return
}

// MaximalMatching computes a maximal matching (the greedy matching over a
// random edge permutation).
func (e *Engine) MaximalMatching(ctx context.Context, g Graph) (match []WEdge, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { match = core.MaximalMatching(s, g, e.seed) })
	return
}

// Coloring computes a (Δ+1)-coloring with Jones-Plassmann LLF.
func (e *Engine) Coloring(ctx context.Context, g Graph) (colors []uint32, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { colors = core.Coloring(s, g, e.seed) })
	return
}

// ColoringLF is Jones-Plassmann under the largest-degree-first heuristic.
func (e *Engine) ColoringLF(ctx context.Context, g Graph) (colors []uint32, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { colors = core.ColoringLF(s, g, e.seed) })
	return
}

// KCore returns the coreness of every vertex and the peeling complexity ρ.
func (e *Engine) KCore(ctx context.Context, g Graph) (coreness []uint32, rho int, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { coreness, rho = core.KCore(s, g) })
	return
}

// ApproxKCore returns corenesses rounded up to powers of two (Slota et al.'s
// approximate variant, the paper's Table 7 comparator).
func (e *Engine) ApproxKCore(ctx context.Context, g Graph) (coreness []uint32, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { coreness = core.ApproxKCore(s, g) })
	return
}

// ApproxSetCover computes an O(log n)-approximate cover of the instance
// where the set for vertex v covers N(v).
func (e *Engine) ApproxSetCover(ctx context.Context, g Graph, eps float64) (cover []uint32, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { cover = core.ApproxSetCover(s, g, eps, e.seed) })
	return
}

// TriangleCount returns the number of triangles of a symmetric graph.
func (e *Engine) TriangleCount(ctx context.Context, g Graph) (count int64, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { count = core.TriangleCount(s, g) })
	return
}

// StatsSym computes undirected-graph statistics (Tables 3, 8-13).
func (e *Engine) StatsSym(ctx context.Context, name string, g Graph, opt StatsOptions) (gs GraphStats, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { gs = stats.ComputeSym(s, name, g, opt) })
	return
}

// StatsDir computes directed-graph statistics (SCCs, directed diameter).
func (e *Engine) StatsDir(ctx context.Context, name string, g Graph, opt StatsOptions) (gs GraphStats, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { gs = stats.ComputeDir(s, name, g, opt) })
	return
}
