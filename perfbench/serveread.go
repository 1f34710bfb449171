package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/gbbs"
	"repro/gbbs/serve"
)

// catItem is one distinct request of the serve-read catalogue.
type catItem struct {
	source     string
	transforms []string
	algo       string
	src        uint32
	seed       uint64
}

// readAlgos are the serve-read problems, at least one per class. Problem i
// runs on catalogue graph i (modulo their number): one graph per problem
// keeps each problem's executions alike, so its median algorithm time does
// not jump between graph sizes from run to run.
var readAlgos = []string{"bfs", "wbfs", "coloring", "kcore", "cc", "mis"}

// catalogue lists the serve-read requests: each problem on its graph in
// cfg.catVariants variants (a source vertex for the shortest-path problems,
// a seed otherwise), ordered by a fixed shuffle that assigns the Zipf
// ranks, so every seed sees the same mix at each rank.
func catalogue(cfg config) []catItem {
	tf := []string{fmt.Sprintf("sym;paperweights:seed=%d", inputSeed)}
	var sources []string
	for i := len(cfg.catScales) - 1; i >= 0; i-- {
		sources = append(sources, fmt.Sprintf("rmat:scale=%d,factor=8,seed=%d", cfg.catScales[i], inputSeed))
	}
	sources = append(sources, fmt.Sprintf("torus:side=%d", cfg.catSide), fmt.Sprintf("grid:side=%d", cfg.catGrid))
	var items []catItem
	for i, a := range readAlgos {
		src := sources[i%len(sources)]
		parsed, _ := gbbs.ParseSource(src)
		n, _, _ := gbbs.SizeHint(parsed)
		for v := 0; v < cfg.catVariants; v++ {
			it := catItem{source: src, transforms: tf, algo: a, seed: gbbs.DefaultSeed}
			if a == "bfs" || a == "wbfs" {
				it.src = uint32(int64(v*97) % n)
			} else {
				it.seed = uint64(v + 1)
			}
			items = append(items, it)
		}
	}
	r := rand.New(rand.NewPCG(0x5eed, 0xca7a))
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// zipfCDF is the cumulative distribution of ranks 1..n with P(r) ∝ r^-s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var total float64
	for r := 1; r <= n; r++ {
		total += math.Pow(float64(r), -s)
		cdf[r-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

func pick(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// readBody renders a catalogue item as a POST /v1/run body.
func readBody(it catItem, tenant string, threads int) []byte {
	seed := it.seed
	b, _ := json.Marshal(serve.RunRequest{
		Source: it.source, Transforms: it.transforms, Algorithm: it.algo, Src: it.src,
		Seed: &seed, Tenant: tenant, Threads: threads, TimeoutMS: 20000,
	})
	return b
}

// arrivals returns the due times of a Poisson process of the given rate
// over [0, total), conditioned on its expected count: that many sorted
// uniform draws. Fixing the count keeps the work of a run, such as the
// edges its writes add, the same for every seed.
func arrivals(r *rand.Rand, rate float64, total time.Duration) []time.Duration {
	out := make([]time.Duration, int(rate*total.Seconds()))
	for i := range out {
		out[i] = time.Duration(r.Int64N(int64(total)))
	}
	slices.Sort(out)
	return out
}

// readSchedule draws the serve-read open loop from the seed: Poisson
// arrivals, Zipf-ranked catalogue items, weighted tenants, and threads:1
// for most requests with threads:nproc for the rest. One request in
// cfg.freshEvery instead asks for bfs on a graph no earlier request named (a
// new RMAT seed each): those, and only those, are cold builds. One-off
// inputs of one size keep the tail alike from run to run; with the
// catalogue's own graphs evicted at random instead, p99 moved by 30%
// between seeds. The fresh inputs are returned for the correctness check;
// an op's item indexes the catalogue followed by them.
func readSchedule(cfg config, cat []catItem, seed uint64, seconds float64) ([]*op, []catItem) {
	r := rand.New(rand.NewPCG(seed, 0x0be7))
	cdf := zipfCDF(len(cat), 1.0)
	total := cfg.warmup + time.Duration(seconds*float64(time.Second))
	var ops []*op
	var fresh []catItem
	for n, due := range arrivals(r, cfg.readRate, total) {
		i := pick(cdf, r.Float64())
		it := cat[i]
		if n%cfg.freshEvery == cfg.freshEvery-1 {
			i = len(cat) + len(fresh)
			it = catItem{
				source:     fmt.Sprintf("rmat:scale=%d,factor=8,seed=%d", cfg.freshScale, seed<<20|uint64(len(fresh))),
				transforms: it.transforms, algo: "bfs", seed: gbbs.DefaultSeed,
			}
			fresh = append(fresh, it)
		}
		u := r.Float64()
		tenant := tenants[len(tenants)-1].name
		for _, t := range tenants {
			if u < t.share {
				tenant = t.name
				break
			}
			u -= t.share
		}
		threads := 1
		if r.Float64() < 0.2 {
			threads = cfg.threads
		}
		ops = append(ops, &op{due: due, method: "POST", path: "/v1/run", body: readBody(it, tenant, threads), algo: it.algo, item: i, fresh: i >= len(cat), single: threads == 1})
	}
	return ops, fresh
}

// newReadServer starts a server with the workload's cache budgets.
func newReadServer(cfg config) *loadGen {
	srv := serve.New(serve.Config{
		MaxThreads: cfg.threads, CacheBytes: cfg.cacheBytes, ResultCacheBytes: cfg.resultBytes,
		TenantWeights: tenantWeights(), DefaultTimeout: 30 * time.Second,
	})
	return newLoadGen(srv, cfg.threads)
}

// setupRead starts a server and requests the hotSet most popular catalogue
// items once each, in order: the set-up a restarted daemon pays before its
// caches hold the traffic's head.
func setupRead(cfg config, cat []catItem) (*loadGen, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	lg := newReadServer(cfg)
	for _, it := range cat[:min(cfg.hotSet, len(cat))] {
		var resp serve.RunResponse
		if err := lg.call("POST", "/v1/run", json.RawMessage(readBody(it, tenants[0].name, cfg.threads)), &resp); err != nil {
			lg.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	return lg, time.Since(start), nil
}

// runServeReadWorkload is serve-read.
func runServeReadWorkload(cfg config) (*outcome, error) {
	out := &outcome{metrics: make(metrics)}
	cat := catalogue(cfg)
	var lg *loadGen
	var setups []float64
	for r := 0; r < cfg.setupReps; r++ {
		if lg != nil {
			lg.close()
		}
		var d time.Duration
		var err error
		if lg, d, err = setupRead(cfg, cat); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer lg.close()

	if !cfg.trace {
		ops, fresh := readSchedule(cfg, cat, cfg.seed, cfg.seconds)
		p := lg.openLoop(ops, cfg.warmup, false)
		out.attempted, out.failed = p.setEndToEnd(out.metrics, cfg.slo)
		out.metrics.set("setup_s", median(setups))
		out.metrics.set("live_heap_mib", liveHeapMiB())
		out.printf("serve-read: %s\n", p.shares())
		out.inputs = servedInputs(cat, p)
		return out, checkServeRead(cfg, slices.Concat(cat, fresh), p)
	}

	// Traced: an untraced and a traced half on the same (warm) server.
	half := cfg.seconds / 2
	opsU, freshU := readSchedule(cfg, cat, cfg.seed, half)
	pu := lg.openLoop(opsU, cfg.warmup, false)
	out.tr = newTracer()
	lg.tr.Store(out.tr)
	gc := startGC()
	opsT, freshT := readSchedule(cfg, cat, cfg.seed+1, half)
	pt := lg.openLoop(opsT, cfg.warmup, true)
	out.inputs = servedInputs(cat, pt)
	setRuntime(out.metrics, gc)
	lg.tr.Store(nil)
	u, t := make(metrics), make(metrics)
	a1, f1 := pu.setEndToEnd(u, cfg.slo)
	a2, f2 := pt.setEndToEnd(t, cfg.slo)
	out.attempted, out.failed = a1+a2, f1+f2
	out.metrics.set("trace.overhead_frac", overhead(out, u, t, []string{"p50_ms", "p99_ms"}))
	pt.setServeLayer(out.metrics, out.tr)
	out.printf("serve-read traced half: %s\n", pt.shares())
	if err := checkServeRead(cfg, slices.Concat(cat, freshU), pu); err != nil {
		return nil, err
	}
	if err := checkServeRead(cfg, slices.Concat(cat, freshT), pt); err != nil {
		return nil, err
	}
	eng := gbbs.New(gbbs.WithThreads(cfg.threads))
	defer eng.Close()
	in, err := buildInput(context.Background(), eng, catalogueTop(cfg), inputSeed, out.tr)
	if err != nil {
		return nil, err
	}
	return out, suiteLayers(cfg, in, out, probeServeUpdate)
}

// catalogueTop is the largest catalogue graph, on which a traced serve-read
// run measures the lower layers.
func catalogueTop(cfg config) inputSpec {
	return inputSpec{kind: "rmat", scale: cfg.catScales[len(cfg.catScales)-1], factor: 8}
}

// servedInputs lists the catalogue graphs' sizes, as the server reported
// them, for the machine context.
func servedInputs(cat []catItem, p *phase) []inputInfo {
	seen := make(map[string]inputInfo)
	for _, o := range p.ops {
		if o.ok() && !o.fresh {
			seen[cat[o.item].source] = inputInfo{Name: cat[o.item].source, N: o.run.Graph.N, M: o.run.Graph.M}
		}
	}
	out := make([]inputInfo, 0, len(seen))
	for _, in := range seen {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// checkServeRead checks every distinct answer of a phase: all responses
// with one fingerprint carry one summary, and that summary equals an
// in-process Engine.Run on the same input.
func checkServeRead(cfg config, cat []catItem, p *phase) error {
	byItem := make(map[int]string)
	for _, o := range p.ops {
		if !o.ok() {
			continue
		}
		if s, seen := byItem[o.item]; seen && s != o.run.Result.Summary {
			return fmt.Errorf("serve-read: %s answered %q and %q", o.run.Key, s, o.run.Result.Summary)
		}
		byItem[o.item] = o.run.Result.Summary
	}
	ctx := context.Background()
	eng := gbbs.New(gbbs.WithThreads(cfg.threads))
	defer eng.Close()
	graphs := make(map[string]gbbs.Graph)
	for i, got := range byItem {
		it := cat[i]
		g, ok := graphs[it.source]
		if !ok {
			src, err := gbbs.ParseSource(it.source)
			if err != nil {
				return err
			}
			var tfs []gbbs.Transform
			for _, spec := range it.transforms {
				t, err := gbbs.ParseTransforms(spec)
				if err != nil {
					return err
				}
				tfs = append(tfs, t...)
			}
			if g, err = eng.Build(ctx, src, tfs...); err != nil {
				return err
			}
			graphs[it.source] = g
		}
		seed := it.seed
		res, err := eng.Run(ctx, it.algo, gbbs.Request{Graph: g, Source: it.src, Seed: &seed})
		if err != nil {
			return err
		}
		if res.Summary != got {
			return fmt.Errorf("serve-read: %s on %s (src %d, seed %d): served %q, in-process %q", it.algo, it.source, it.src, it.seed, got, res.Summary)
		}
	}
	return nil
}
