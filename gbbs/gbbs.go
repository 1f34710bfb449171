// Package gbbs is the public API of this Go reproduction of "Theoretically
// Efficient Parallel Graph Algorithms Can Be Fast and Scalable" (Dhulipala,
// Blelloch, Shun; SPAA 2018) — the GBBS benchmark.
//
// It exposes:
//
//   - engines (Engine, New): isolated execution scopes owning a private
//     scheduler, a thread budget and a seed, on which everything below
//     runs;
//   - graph construction as an engine-scoped pipeline (see Build):
//     GraphSource describes where a graph comes from (edge lists, the
//     RMAT / torus / Erdős–Rényi / preferential-attachment / small-world
//     generators, adjacency and binary file readers), Transform describes
//     what happens to it (Symmetrize, weight assignment, relabelling,
//     parallel-byte compression), and Engine.Build materializes the
//     pipeline;
//   - the benchmark's 15 theoretically-efficient parallel algorithms with
//     the work/depth bounds of the paper's Table 1, as methods on Engine;
//   - a registry (Register, Algorithms, Lookup) for dispatching algorithms
//     by name with uniform Request/Result types, including declarative
//     inputs (Request.Input) built through the engine, typed parameter
//     schemas (Algorithm.Params, validated by Engine.Run with descriptive
//     errors for unknown or out-of-range options), canonical request
//     fingerprints (Request.Key) identifying deterministic results, and a
//     stable JSON encoding of Result shared by the CLI and the HTTP
//     serving layer;
//   - a textual spec language (ParseSource, ParseTransforms) describing
//     sources and transforms on command lines and over the wire;
//   - the statistics suite behind the paper's Tables 3 and 8–13.
//
// The HTTP serving layer in the repro/gbbs/serve subpackage builds on all
// of this: it accepts whole tenant requests — input spec, algorithm name,
// thread budget, deadline — as single JSON objects, executes them on
// per-request engines, keeps engine-built graphs resident in a spec-keyed
// cache, and answers repeated identical requests from a deterministic
// result cache keyed by Request.Key.
//
// # Engines
//
// An Engine owns an isolated scheduler, so concurrent engines never share
// parallelism state — one process can serve many requests, each with its own
// thread budget, seed and context. Both graph construction and algorithm
// execution run on that private scheduler:
//
//	eng := gbbs.New(gbbs.WithThreads(8), gbbs.WithSeed(1))
//	g, err := eng.Build(ctx, gbbs.RMAT(18, 16, 1), gbbs.Symmetrize())
//	dist, err := eng.BFS(ctx, g, 0)
//	labels, err := eng.Connectivity(ctx, g)
//
// Engine methods take a context.Context, check it between algorithm rounds
// (and between build phases), and return ctx.Err() promptly after
// cancellation or deadline expiry. Name-based dispatch goes through the
// registry, with either a prebuilt graph or a declarative input:
//
//	res, err := eng.Run(ctx, "bfs", gbbs.Request{Graph: g, Source: 0})
//	res, err := eng.Run(ctx, "cc", gbbs.Request{Input: &gbbs.InputSpec{
//		Source:     gbbs.RMAT(18, 16, 1),
//		Transforms: []gbbs.Transform{gbbs.Symmetrize()},
//	}})
//
// All algorithms accept any Graph (uncompressed CSR or compressed); both
// algorithms and builds are deterministic for a fixed seed, independent of
// the thread count.
//
// # Declarative specs
//
// ParseSource and ParseTransforms turn compact strings into the same source
// and transform values the constructors produce, so an input can live in a
// flag, a config file, or a JSON request body:
//
//	src, _ := gbbs.ParseSource("rmat:scale=18,factor=16")
//	tfs, _ := gbbs.ParseTransforms("symmetrize;paper-weights:1;compress")
//
// Parsed sources render canonically via String (every argument spelled
// out), which is how the serving layer's graph cache recognizes two
// spellings of the same input.
//
// # Legacy free functions
//
// The package-level algorithm functions (BFS, Connectivity, ...), the
// one-shot constructors (FromEdgeList, RMATGraph, ReadAdjacency, ...) and
// SetThreads predate Engine. They remain fully functional, delegating to a
// process-wide default scheduler, but are deprecated for new code: they
// cannot be cancelled and share one global worker count.
package gbbs

import (
	"io"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Graph is the access interface shared by compressed and uncompressed
// graphs; see CSR and Compressed.
type Graph = graph.Graph

// CSR is the uncompressed compressed-sparse-row representation.
type CSR = graph.CSR

// Compressed is the Ligra+ parallel-byte compressed representation.
type Compressed = compress.Graph

// EdgeList is a struct-of-arrays list of (possibly weighted) edges.
type EdgeList = graph.EdgeList

// BuildOptions controls FromEdgeList; the zero value deduplicates, removes
// self-loops and builds the transpose of directed graphs.
type BuildOptions = graph.BuildOptions

// WEdge is a weighted undirected edge in MSF / matching outputs.
type WEdge = core.WEdge

// Bicc is the biconnectivity query structure (per-vertex labels + forest).
type Bicc = core.Bicc

// SCCOpts tunes the SCC algorithm (batch growth rate, trimming).
type SCCOpts = core.SCCOpts

// GraphStats bundles the per-graph statistics of the paper's Tables 8-13.
type GraphStats = stats.Graph

// StatsOptions tunes statistics computation.
type StatsOptions = stats.Options

// Inf marks unreachable distances and unassigned labels.
const Inf = core.Inf

// InfDist and NegInfDist are Bellman-Ford's unreachable / negative-cycle
// distance sentinels.
const (
	InfDist    = core.InfDist
	NegInfDist = core.NegInfDist
)

// SetThreads sets the number of worker goroutines used by the default
// engine's scheduler (and therefore by the package-level algorithm
// functions), returning the previous value. SetThreads(1) runs everything
// sequentially (how the paper's single-thread columns are measured).
//
// Deprecated: SetThreads mutates process-global state. Create an isolated
// engine with New(WithThreads(p)) instead.
func SetThreads(p int) int { return parallel.SetWorkers(p) }

// Threads reports the default engine's current worker count.
//
// Deprecated: use Engine.Threads.
func Threads() int { return parallel.Workers() }

// FromEdgeList builds a CSR graph over n vertices on the default scheduler.
//
// Deprecated: build on an engine's scheduler instead:
// Engine.Build(ctx, Edges(el), ...).
func FromEdgeList(n int, el *EdgeList, opt BuildOptions) *CSR {
	return graph.FromEdgeList(parallel.Default, n, el, opt)
}

// Compress converts a CSR graph to the parallel-byte format on the default
// scheduler. blockSize <= 0 selects the default (64 neighbors per block).
//
// Deprecated: use Engine.Build(ctx, Prebuilt(g), EncodeCompressed(blockSize)).
func Compress(g *CSR, blockSize int) *Compressed {
	return compress.FromCSR(parallel.Default, g, blockSize)
}

// RMATGraph generates an RMAT power-law graph with n = 2^scale vertices and
// ~n*edgeFactor edges (the stand-in for the paper's social/web graphs) on
// the default scheduler.
//
// Deprecated: use Engine.Build(ctx, RMAT(scale, edgeFactor, seed), ...).
func RMATGraph(scale, edgeFactor int, symmetric, weighted bool, seed uint64) *CSR {
	return gen.BuildRMAT(parallel.Default, scale, edgeFactor, symmetric, weighted, seed)
}

// TorusGraph generates the paper's 3D-Torus on side³ vertices (6-regular,
// high diameter) on the default scheduler.
//
// Deprecated: use Engine.Build(ctx, Torus(side), Symmetrize(), ...).
func TorusGraph(side int, weighted bool, seed uint64) *CSR {
	return gen.BuildTorus3D(parallel.Default, side, weighted, seed)
}

// RandomGraph generates an Erdős–Rényi-style graph with m uniformly random
// edges on the default scheduler.
//
// Deprecated: use Engine.Build(ctx, Random(n, m, seed), ...).
func RandomGraph(n, m int, symmetric, weighted bool, seed uint64) *CSR {
	return gen.BuildErdosRenyi(parallel.Default, n, m, symmetric, weighted, seed)
}

// PreferentialGraph generates a Barabási–Albert preferential-attachment
// graph (power-law, single component) on the default scheduler.
//
// Deprecated: use Engine.Build(ctx, Preferential(n, k, seed), Symmetrize()).
func PreferentialGraph(n, k int, weighted bool, seed uint64) *CSR {
	return gen.BuildBarabasiAlbert(parallel.Default, n, k, weighted, seed)
}

// SmallWorldGraph generates a Watts–Strogatz small-world graph: ring
// lattice with k clockwise neighbors, rewired with probability p, on the
// default scheduler.
//
// Deprecated: use Engine.Build(ctx, SmallWorld(n, k, p, seed), Symmetrize()).
func SmallWorldGraph(n, k int, p float64, weighted bool, seed uint64) *CSR {
	return gen.BuildWattsStrogatz(parallel.Default, n, k, p, weighted, seed)
}

// ReadAdjacency parses the (Weighted)AdjacencyGraph text format on the
// default scheduler.
//
// Deprecated: use Engine.Build(ctx, Adjacency(r, symmetric)).
func ReadAdjacency(r io.Reader, symmetric bool) (*CSR, error) {
	return graph.ReadAdjacency(parallel.Default, r, symmetric)
}

// WriteAdjacency writes the (Weighted)AdjacencyGraph text format.
func WriteAdjacency(w io.Writer, g *CSR) error { return graph.WriteAdjacency(w, g) }

// ReadBinary parses the compact binary graph format on the default
// scheduler.
//
// Deprecated: use Engine.Build(ctx, Binary(r)).
func ReadBinary(r io.Reader) (*CSR, error) { return graph.ReadBinary(parallel.Default, r) }

// WriteBinary writes the compact binary graph format (loads far faster than
// the text format; use it for large inputs).
func WriteBinary(w io.Writer, g *CSR) error { return graph.WriteBinary(w, g) }

// WriteBinaryChecked writes the checked binary graph format: the compact
// binary layout extended with a header CRC and per-section CRC32C
// checksums, so corruption is detected at load time. This is the snapshot
// format of the persistent graph store; read it back with
// Engine.ReadBinaryChecked.
func WriteBinaryChecked(w io.Writer, g *CSR) error { return graph.WriteBinaryChecked(w, g) }

// BFS returns hop distances from src; O(m) work, O(diam·log n) depth.
func BFS(g Graph, src uint32) []uint32 { return core.BFS(parallel.Default, g, src) }

// WeightedBFS solves integral-weight SSSP (wBFS / Julienne); O(m) expected
// work. Weights must be >= 1.
func WeightedBFS(g Graph, src uint32) []uint32 { return core.WeightedBFS(parallel.Default, g, src) }

// DeltaStepping solves positive-integer-weight SSSP with Meyer-Sanders
// Δ-stepping, the GAP-benchmark comparator the paper measures wBFS against.
// delta <= 0 selects the average edge weight.
func DeltaStepping(g Graph, src uint32, delta int32) []uint32 {
	return core.DeltaStepping(parallel.Default, g, src, delta)
}

// BellmanFord solves general-weight SSSP; reports reachable negative cycles
// with NegInfDist distances.
func BellmanFord(g Graph, src uint32) ([]int64, bool) {
	return core.BellmanFord(parallel.Default, g, src)
}

// BC returns single-source betweenness-centrality dependencies from src.
func BC(g Graph, src uint32) []float64 { return core.BC(parallel.Default, g, src) }

// LDD computes a (2β, O(log n/β)) low-diameter decomposition.
func LDD(g Graph, beta float64, seed uint64) []uint32 {
	return core.LDD(parallel.Default, g, beta, seed)
}

// Connectivity labels connected components with each component's minimum
// vertex id. seed is ignored: the labelling is canonical.
func Connectivity(g Graph, seed uint64) []uint32 {
	return core.UnionFindCC(parallel.Default, g)
}

// SpanningForest returns a rooted spanning forest (parents, levels, roots).
// seed is ignored: the roots are each component's minimum vertex.
func SpanningForest(g Graph, seed uint64) (parent, level, roots []uint32) {
	return core.SpanningForest(parallel.Default, g)
}

// Biconnectivity computes the Tarjan-Vishkin biconnectivity query
// structure. seed is ignored: the labels are canonical.
func Biconnectivity(g Graph, seed uint64) *Bicc {
	return core.Biconnectivity(parallel.Default, g)
}

// SCC labels strongly connected components of a directed graph.
func SCC(g Graph, seed uint64, opt SCCOpts) []uint32 { return core.SCC(parallel.Default, g, seed, opt) }

// MSF computes a minimum spanning forest of a weighted symmetric graph,
// returning the forest edges and total weight.
func MSF(g Graph) ([]WEdge, int64) { return core.MSF(parallel.Default, g) }

// MIS computes a maximal independent set (the greedy set over a random
// permutation) with the rootset-based algorithm.
func MIS(g Graph, seed uint64) []bool { return core.MIS(parallel.Default, g, seed) }

// MISPrefix computes the same maximal independent set with the prefix-based
// baseline algorithm the paper compares against.
func MISPrefix(g Graph, seed uint64) []bool { return core.MISPrefix(parallel.Default, g, seed) }

// MaximalMatching computes a maximal matching (the greedy matching over a
// random edge permutation).
func MaximalMatching(g Graph, seed uint64) []WEdge {
	return core.MaximalMatching(parallel.Default, g, seed)
}

// Coloring computes a (Δ+1)-coloring with Jones-Plassmann LLF.
func Coloring(g Graph, seed uint64) []uint32 { return core.Coloring(parallel.Default, g, seed) }

// ColoringLF is Jones-Plassmann under the largest-degree-first heuristic
// (the other ordering the paper's statistics tables report).
func ColoringLF(g Graph, seed uint64) []uint32 { return core.ColoringLF(parallel.Default, g, seed) }

// KCore returns the coreness of every vertex and the peeling complexity ρ.
func KCore(g Graph) (coreness []uint32, rho int) { return core.KCore(parallel.Default, g) }

// ApproxKCore returns corenesses rounded up to powers of two, the
// approximate variant of Slota et al. that the paper's Table 7 compares
// exact k-core against.
func ApproxKCore(g Graph) []uint32 { return core.ApproxKCore(parallel.Default, g) }

// ApproxSetCover computes an O(log n)-approximate cover of the instance
// where the set for vertex v covers N(v).
func ApproxSetCover(g Graph, eps float64, seed uint64) []uint32 {
	return core.ApproxSetCover(parallel.Default, g, eps, seed)
}

// TriangleCount returns the number of triangles of a symmetric graph.
func TriangleCount(g Graph) int64 { return core.TriangleCount(parallel.Default, g) }

// Degeneracy returns k_max from a coreness array.
func Degeneracy(coreness []uint32) int { return core.Degeneracy(parallel.Default, coreness) }

// NumColors returns the number of colors a coloring uses.
func NumColors(colors []uint32) int { return core.NumColors(parallel.Default, colors) }

// ComponentCount returns the number of distinct labels and largest class.
func ComponentCount(labels []uint32) (int, int) { return core.ComponentCount(parallel.Default, labels) }

// StatsSym computes undirected-graph statistics (Tables 3, 8-13).
func StatsSym(name string, g Graph, opt StatsOptions) GraphStats {
	return stats.ComputeSym(parallel.Default, name, g, opt)
}

// StatsDir computes directed-graph statistics (SCCs, directed diameter).
func StatsDir(name string, g Graph, opt StatsOptions) GraphStats {
	return stats.ComputeDir(parallel.Default, name, g, opt)
}

// WriteStats prints a statistics table in the paper's Tables 8-13 layout.
func WriteStats(w io.Writer, s GraphStats, directed bool) { stats.WriteTable(w, s, directed) }
