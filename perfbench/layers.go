package main

import (
	"context"
	"slices"
	"time"

	"repro/gbbs"
	"repro/internal/compress"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ligra"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// A traced run reports every per-layer metric. The layers a workload does
// not drive itself are measured by short probes: the lower layers on the
// workload's own graph, and the serve and store layers by a short
// serve-read or serve-update phase.
const (
	probeServeRead = 1 << iota
	probeServeUpdate
)

// suiteLayers runs traced suite passes on a serve workload's graph (for the
// algo.* metrics), checks their outputs, and then the layer probes.
func suiteLayers(cfg config, in suiteInput, out *outcome, probes int) error {
	ctx := context.Background()
	eng := gbbs.New(gbbs.WithThreads(cfg.threads), gbbs.WithSeed(inputSeed))
	defer eng.Close()
	ref, _, err := runPass(ctx, eng, in, suiteKeys, inputSeed)
	if err != nil {
		return err
	}
	refDigest, err := digestAll(in, ref)
	if err != nil {
		return err
	}
	traced, err := measurePasses(ctx, eng, in, suiteKeys, inputSeed, ref, refDigest, deadline(cfg.probeSeconds), 2, cfg.suiteSLO, passOrder(cfg), out.tr)
	if err != nil {
		return err
	}
	if err := algoLayer(ctx, cfg, in, suiteKeys, traced, out); err != nil {
		return err
	}
	for _, k := range suiteKeys {
		if err := checkSolution(in, k, ref[k]); err != nil {
			return err
		}
	}
	return layerProbes(cfg, in, out, probes)
}

// layerProbes measures parallel, prims, ligra and build on the workload's
// input, then runs the requested serve probes.
func layerProbes(cfg config, in suiteInput, out *outcome, probes int) error {
	csr, ok := in.sym.(*gbbs.CSR)
	if !ok {
		panic("perfbench: suite inputs are CSR graphs")
	}
	microLayers(cfg, csr, out)
	buildLayer(cfg, in.spec, out)
	if probes&probeServeRead != 0 {
		if err := probeRead(cfg, out); err != nil {
			return err
		}
	}
	if probes&probeServeUpdate != 0 {
		if err := probeUpdate(cfg, out); err != nil {
			return err
		}
	}
	out.metrics.set("trace.spans", float64(out.tr.count()))
	return nil
}

// timeLayer runs prep and then f, reps times, with f inside a span. It
// returns f's median seconds and its mean allocated bytes per call.
func timeLayer(tr *tracer, layer, name string, reps int, prep, f func()) (sec, bytes float64) {
	prep()
	f() // warm-up
	var ts []float64
	var alloc float64
	for i := 0; i < reps; i++ {
		prep()
		gc := startGC()
		id := tr.begin(layer, name, 0, "")
		start := time.Now()
		f()
		ts = append(ts, time.Since(start).Seconds())
		tr.end(id)
		a, _, _ := gc.stop()
		alloc += a * mib
	}
	return median(ts), alloc / float64(reps)
}

// microLayers measures the parallel, prims and ligra layers on g.
func microLayers(cfg config, g *gbbs.CSR, out *outcome) {
	s := parallel.New(cfg.threads)
	defer s.Close()
	tr, reps := out.tr, cfg.microReps
	n, m := g.N(), g.M()
	nop := func() {}

	const loops = 100
	sec, _ := timeLayer(tr, "parallel", "Scheduler.ForRange", reps, nop, func() {
		for i := 0; i < loops; i++ {
			s.ForRange(n, 0, func(lo, hi int) {})
		}
	})
	out.metrics.set("parallel.forrange_us", sec/loops*1e6)

	// prims on m-sized arrays.
	keys := make([]uint32, m)
	vals := make([]int64, m)
	x := uint64(inputSeed) | 1
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = uint32(x % uint64(n))
		vals[i] = int64(x % 7)
	}
	scanOut := make([]int64, m)
	wide := make([]uint64, m)
	perElem := func(name string, sec, bytes float64) {
		out.metrics.set("prims."+name+"_ns_per_elem", sec/float64(m)*1e9)
		out.metrics.set("prims."+name+"_bytes_per_elem", bytes/float64(m))
	}
	sec, b := timeLayer(tr, "prims", "Scan", reps, nop, func() { prims.Scan(s, vals, scanOut) })
	perElem("scan", sec, b)
	sec, b = timeLayer(tr, "prims", "PackIndex", reps, nop, func() { prims.PackIndex(s, m, func(i int) bool { return keys[i]&1 == 0 }) })
	perElem("pack", sec, b)
	bits := prims.BitsFor(uint64(n))
	sec, b = timeLayer(tr, "prims", "Histogram", reps, nop, func() { prims.Histogram(s, keys, bits) })
	perElem("histogram", sec, b)
	sec, b = timeLayer(tr, "prims", "RadixSortU64", reps, func() {
		for i, k := range keys {
			wide[i] = uint64(k)<<32 | uint64(keys[(i*7+1)%m])
		}
	}, func() { prims.RadixSortU64(s, wide, 32+bits) })
	perElem("sort", sec, b)

	// ligra: a small fixed frontier forced sparse, and a full frontier.
	ids := make([]uint32, 0, 64)
	edges := 0
	for v := 0; v < n && len(ids) < 64; v += max(1, n/64) {
		ids = append(ids, uint32(v))
		edges += g.OutDeg(uint32(v))
	}
	edges = max(edges, 1)
	update := func(_, d uint32, _ int32) bool { return d&1 == 0 }
	never := func(_, _ uint32, _ int32) bool { return false }
	always := func(uint32) bool { return true }
	before := ligra.Traffic.Load()
	sec, _ = timeLayer(tr, "ligra", "EdgeMap sparse", reps, nop, func() {
		for i := 0; i < loops; i++ {
			ligra.EdgeMap(s, g, ligra.FromSparse(n, ids), update, always, ligra.Opts{NoDense: true})
		}
	})
	words := float64(ligra.Traffic.Load()-before) / float64((reps+1)*loops*edges)
	out.metrics.set("ligra.sparse_ns_per_edge", sec/float64(loops*edges)*1e9)
	out.metrics.set("ligra.sparse_words_per_edge", words)
	dense := func(g graph.Graph) float64 {
		sec, _ := timeLayer(tr, "ligra", "EdgeMap dense", reps, nop, func() {
			ligra.EdgeMap(s, g, ligra.All(s, n), never, always, ligra.Opts{})
		})
		return sec / float64(max(m, 1)) * 1e9
	}
	out.metrics.set("ligra.dense_ns_per_edge", dense(g))
	out.metrics.set("ligra.dense_compressed_ns_per_edge", dense(compress.FromCSR(s, g, 0)))
}

// buildLayer times the build pipeline's stages on the workload's input:
// generation (with paper weights), CSR layout, and byte-code compression.
func buildLayer(cfg config, spec inputSpec, out *outcome) {
	s := parallel.New(cfg.threads)
	defer s.Close()
	var genT, csrT, compT []float64
	for r := 0; r < 3; r++ {
		var el *graph.EdgeList
		var csr *graph.CSR
		genT = append(genT, timed(out.tr, "gen."+spec.kind, func() {
			if spec.kind == "torus" {
				el = gen.Torus3D(s, spec.side)
			} else {
				el = gen.RMAT(s, spec.scale, spec.factor, inputSeed)
			}
			gen.WithRandomWeights(s, el, gen.PaperWeight(el.N), inputSeed)
		}))
		csrT = append(csrT, timed(out.tr, "graph.FromEdgeList", func() {
			csr = graph.FromEdgeList(s, el.N, el, graph.BuildOptions{Symmetrize: true})
		}))
		compT = append(compT, timed(out.tr, "compress.FromCSR", func() { compress.FromCSR(s, csr, 0) }))
	}
	out.metrics.set("build.gen_ms", median(genT))
	out.metrics.set("build.csr_ms", median(csrT))
	out.metrics.set("build.compress_ms", median(compT))
}

// timed runs f in a build-layer span and returns its milliseconds.
func timed(tr *tracer, name string, f func()) float64 {
	id := tr.begin("build", name, 0, "")
	start := time.Now()
	f()
	d := time.Since(start)
	tr.end(id)
	return ms(d)
}

// probeRead is a short traced serve-read phase for the serve.* metrics.
func probeRead(cfg config, out *outcome) error {
	cat := catalogue(cfg)
	lg, _, err := setupRead(cfg, cat)
	if err != nil {
		return err
	}
	defer lg.close()
	lg.tr.Store(out.tr)
	ops, fresh := readSchedule(cfg, cat, cfg.seed, cfg.probeSeconds)
	p := lg.openLoop(ops, cfg.warmup/2, true)
	lg.tr.Store(nil)
	p.setServeLayer(out.metrics, out.tr)
	out.printf("serve-read probe: %s\n", p.shares())
	return checkServeRead(cfg, slices.Concat(cat, fresh), p)
}

// probeUpdate is a short traced serve-update phase for the store.* metrics.
func probeUpdate(cfg config, out *outcome) error {
	lg, stored, _, err := setupUpdate(cfg)
	if err != nil {
		return err
	}
	defer lg.close()
	ops, batches := updateSchedule(cfg, stored, cfg.seed, cfg.probeSeconds)
	lg.tr.Store(out.tr)
	p := lg.openLoop(ops, cfg.warmup/2, true)
	if err := p.setStoreLayer(out.metrics, lg); err != nil {
		return err
	}
	lg.tr.Store(nil)
	out.printf("serve-update probe: %s\n", p.shares())
	return checkServeUpdate(cfg, lg, p, batches)
}
