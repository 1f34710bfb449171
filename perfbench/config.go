package main

import (
	"runtime"
	"time"
)

// declared is one metric as BENCHMARK.json lists it.
type declared struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// classes are the paper's four problem groups (§6), in report order.
var classes = []string{"shortest_path", "connectivity", "covering", "substructure"}

// classOf maps each paper-suite problem to its group.
var classOf = map[string]string{
	"bfs": "shortest_path", "wbfs": "shortest_path", "bellmanford": "shortest_path", "bc": "shortest_path",
	"ldd": "connectivity", "cc": "connectivity", "bicc": "connectivity", "scc": "connectivity", "msf": "connectivity",
	"mis": "covering", "mm": "covering", "coloring": "covering", "setcover": "covering",
	"kcore": "substructure", "tc": "substructure",
}

// endToEnd are the metrics of an untraced run. Every workload reports all
// of them; README.md says what each means on each workload. The bounds are
// wide because the machines this runs on are small and shared: on a 2-CPU
// virtual machine losing 5-15% of its time to other tenants, ten seeds of
// each workload spread (quartile distance over median) by up to 0.13 on
// every timing.
var endToEnd = []declared{
	{"setup_s", "s", "lower", 0.25},
	{"shortest_path_s", "s", "lower", 0.25},
	{"connectivity_s", "s", "lower", 0.25},
	{"covering_s", "s", "lower", 0.25},
	{"substructure_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"slo_frac", "ratio", "higher", 0.05},
	{"live_heap_mib", "MiB", "lower", 0.25},
}

// perLayer are the metrics of a traced run, grouped by layer.
var perLayer = func() []declared {
	d := []declared{
		{name: "parallel.forrange_us", unit: "us", better: "lower"},
	}
	for _, p := range []string{"scan", "pack", "histogram", "sort"} {
		d = append(d, declared{name: "prims." + p + "_ns_per_elem", unit: "ns/elem", better: "lower"})
	}
	for _, p := range []string{"scan", "pack", "histogram", "sort"} {
		d = append(d, declared{name: "prims." + p + "_bytes_per_elem", unit: "B/elem", better: "lower"})
	}
	d = append(d,
		declared{name: "ligra.sparse_ns_per_edge", unit: "ns/edge", better: "lower"},
		declared{name: "ligra.dense_ns_per_edge", unit: "ns/edge", better: "lower"},
		declared{name: "ligra.sparse_words_per_edge", unit: "words/edge", better: "lower"},
		declared{name: "ligra.dense_compressed_ns_per_edge", unit: "ns/edge", better: "lower"},
	)
	for _, k := range suiteKeys {
		d = append(d, declared{name: "algo." + k + "_ms", unit: "ms", better: "lower"})
	}
	for _, k := range suiteKeys {
		d = append(d, declared{name: "algo." + k + ".speedup", unit: "x", better: "higher"})
	}
	for _, k := range suiteKeys {
		d = append(d, declared{name: "algo." + k + ".alloc_mib", unit: "MiB", better: "lower"})
	}
	d = append(d,
		declared{name: "build.gen_ms", unit: "ms", better: "lower"},
		declared{name: "build.csr_ms", unit: "ms", better: "lower"},
		declared{name: "build.compress_ms", unit: "ms", better: "lower"},

		declared{name: "serve.result_hit_frac", unit: "ratio", better: "higher"},
		declared{name: "serve.graph_hit_frac", unit: "ratio", better: "higher"},
		declared{name: "serve.cold_frac", unit: "ratio", better: "lower"},
		declared{name: "serve.hit_ms", unit: "ms", better: "lower"},
		declared{name: "serve.transport_ms", unit: "ms", better: "lower"},
		declared{name: "serve.graph_hit_ms", unit: "ms", better: "lower"},
		declared{name: "serve.cold_ms", unit: "ms", better: "lower"},
		declared{name: "serve.algo_ms", unit: "ms", better: "lower"},
		declared{name: "serve.overhead_ms", unit: "ms", better: "lower"},
		declared{name: "serve.limiter_busy_frac", unit: "ratio", better: "lower"},
		declared{name: "serve.limiter_queued_mean", unit: "requests", better: "lower"},
		declared{name: "serve.graph_evictions", unit: "count", better: "lower"},
		declared{name: "serve.result_evictions", unit: "count", better: "lower"},
		declared{name: "serve.engine_pool_hit_frac", unit: "ratio", better: "higher"},
		declared{name: "serve.gen_late_ms", unit: "ms", better: "lower"},

		declared{name: "store.write_ms", unit: "ms", better: "lower"},
		declared{name: "store.write_p90_ms", unit: "ms", better: "lower"},
		declared{name: "store.compactions", unit: "count", better: "lower"},
		declared{name: "store.wal_bytes", unit: "B", better: "lower"},
		declared{name: "store.invalidated_per_write", unit: "entries", better: "lower"},
		declared{name: "store.read_hit_frac", unit: "ratio", better: "higher"},
		declared{name: "store.incrcc_ms", unit: "ms", better: "lower"},
		declared{name: "store.overlay_bfs_ms", unit: "ms", better: "lower"},

		declared{name: "runtime.alloc_mib", unit: "MiB", better: "lower"},
		declared{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		declared{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},

		declared{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
		declared{name: "trace.spans", unit: "count", better: "lower"},
	)
	return d
}()

// suiteKeys are the paper suite's registry names in Table 2 row order.
var suiteKeys = []string{"bfs", "wbfs", "bellmanford", "bc", "ldd", "cc", "bicc", "scc", "msf", "mis", "mm", "coloring", "kcore", "setcover", "tc"}

// unitOf resolves a declared metric's unit.
var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]declared{}, endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// inputSeed generates every graph and seeds every randomized algorithm.
// It is fixed, as the paper fixes one input per table row: bicc's time on
// the RMAT input varies from 0.21 s to 0.49 s with the graph and algorithm
// seeds alone, so inputs drawn per --seed would make the suite metrics
// unsteady across seeds. --seed instead drives what a workload's
// operations are and when they run: the problem order of each suite pass,
// and the serve workloads' request schedules and edge batches.
const inputSeed = 1

// inputSpec names one generated suite input.
type inputSpec struct {
	kind   string // "rmat" or "torus"
	scale  int    // rmat
	factor int    // rmat
	side   int    // torus
}

// config is one workload run's full parameter set. configFor gives the
// benchmark's sizes; the tests shrink them.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	threads  int // worker threads of the suite engine and the server (nproc)

	setupReps int // set-up repetitions; setup_s is their median
	minPasses int // suite passes even when --seconds is short

	// Suite workloads.
	input    inputSpec
	suiteSLO time.Duration // a solve within this counts towards slo_frac

	// Serve workloads.
	readRate    float64       // serve-read: open-loop requests per second
	updateRate  float64       // serve-update: open-loop operations per second
	warmup      time.Duration // traffic before measurement, not recorded
	slo         time.Duration // read latency limit of slo_frac
	cacheBytes  int64         // serve.Config.CacheBytes
	resultBytes int64         // serve.Config.ResultCacheBytes
	catScales   []int         // RMAT scales of the serve-read catalogue
	catSide     int           // torus side of the serve-read catalogue
	catGrid     int           // grid side of the serve-read catalogue
	catVariants int           // seeds/sources per (graph, problem) pair
	hotSet      int           // catalogue entries requested during set-up
	freshEvery  int           // serve-read: one request in this many is on a one-off input
	freshScale  int           // serve-read: RMAT scale of the one-off inputs
	storeScale  int           // serve-update: RMAT scale of graph "ga"
	storeSide   int           // serve-update: torus side of graph "gb"
	batchEdges  int           // serve-update: edges per write
	writeEvery  int           // serve-update: one write per this many ops

	// Traced runs: the short serve phases that measure the serve and store
	// layers when the workload itself does not drive them.
	probeSeconds float64
	microReps    int
}

// workloadList names the workloads in BENCHMARK.json order.
var workloadList = []string{"suite-rmat", "suite-torus", "serve-read"}

// configFor returns the benchmark configuration of a workload.
func configFor(workload string, seed uint64, seconds float64) (config, bool) {
	c := config{
		workload: workload, seed: seed, seconds: seconds,
		threads:   runtime.NumCPU(),
		setupReps: 3, minPasses: 3,
		input:    inputSpec{kind: "rmat", scale: 16, factor: 8},
		suiteSLO: 2 * time.Second,

		readRate: 55, updateRate: 70, warmup: 3 * time.Second, slo: 250 * time.Millisecond,
		cacheBytes: 8 << 20, resultBytes: 2 << 20,
		catScales: []int{11, 12, 13, 14}, catSide: 20, catGrid: 120, catVariants: 30, hotSet: 6,
		freshEvery: 33, freshScale: 13,
		storeScale: 13, storeSide: 20, batchEdges: 1000, writeEvery: 5,

		probeSeconds: 2, microReps: 5,
	}
	switch workload {
	case "suite-rmat":
	case "suite-torus":
		c.input = inputSpec{kind: "torus", side: 40}
	case "serve-read":
	default:
		return c, false
	}
	return c, true
}
