package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/gbbs"
)

// suiteInput is one generated input in the variants the suite needs.
type suiteInput struct {
	spec inputSpec
	name string
	sym  gbbs.Graph // symmetric, paper weights
	dir  gbbs.Graph // directed variant, for SCC
}

func (s inputSpec) String() string {
	if s.kind == "torus" {
		return fmt.Sprintf("torus(side=%d)", s.side)
	}
	return fmt.Sprintf("rmat(scale=%d,factor=%d)", s.scale, s.factor)
}

// source returns the generator of the spec's input.
func (s inputSpec) source(seed uint64) gbbs.GraphSource {
	if s.kind == "torus" {
		return gbbs.Torus(s.side)
	}
	return gbbs.RMAT(s.scale, s.factor, seed)
}

// buildInput builds both variants through Engine.Build.
func buildInput(ctx context.Context, eng *gbbs.Engine, spec inputSpec, seed uint64, tr *tracer) (suiteInput, error) {
	in := suiteInput{spec: spec, name: spec.String()}
	var err error
	tr.do("build", "Engine.Build sym", 0, func() {
		in.sym, err = eng.Build(ctx, spec.source(seed), gbbs.Symmetrize(), gbbs.PaperWeights(seed))
	})
	if err != nil {
		return in, err
	}
	tr.do("build", "Engine.Build dir", 0, func() { in.dir, err = eng.Build(ctx, spec.source(seed)) })
	return in, err
}

// graphFor picks the variant a problem runs on.
func (in suiteInput) graphFor(key string) gbbs.Graph {
	if key == "scc" {
		return in.dir
	}
	return in.sym
}

// solveStats are the per-problem samples of a measured phase.
type solveStats struct {
	times  map[string][]float64 // seconds per solve
	allocs map[string][]float64 // MiB allocated per solve (traced phases)
	solves int
	within int // solves that finished within the suite's latency limit
}

func newSolveStats() solveStats {
	return solveStats{times: make(map[string][]float64), allocs: make(map[string][]float64)}
}

// solve runs one problem through Engine.Run and times it.
func solve(ctx context.Context, eng *gbbs.Engine, in suiteInput, key string, seed uint64) (any, time.Duration, error) {
	start := time.Now()
	res, err := eng.Run(ctx, key, gbbs.Request{Graph: in.graphFor(key), Seed: &seed})
	d := time.Since(start)
	if err != nil {
		return nil, d, fmt.Errorf("%s on %s: %w", key, in.name, err)
	}
	return res.Value, d, nil
}

// runPass solves every problem once and returns the outputs.
func runPass(ctx context.Context, eng *gbbs.Engine, in suiteInput, keys []string, seed uint64) (map[string]any, map[string]time.Duration, error) {
	vals := make(map[string]any, len(keys))
	times := make(map[string]time.Duration, len(keys))
	for _, k := range keys {
		v, d, err := solve(ctx, eng, in, k, seed)
		if err != nil {
			return nil, nil, err
		}
		vals[k], times[k] = v, d
	}
	return vals, times, nil
}

// measurePasses repeats passes until the deadline (and at least minPasses
// times), each in an order drawn from order. Each output is compared with the reference pass's, outside the
// timed call. With a tracer, each solve gets an "algo" span under its
// pass's span, and its allocation is recorded.
func measurePasses(ctx context.Context, eng *gbbs.Engine, in suiteInput, keys []string, seed uint64,
	ref map[string]any, refDigest map[string]uint64, until time.Time, minPasses int, slo time.Duration, order *rand.Rand, tr *tracer) (solveStats, error) {
	st := newSolveStats()
	keys = append([]string(nil), keys...)
	for pass := 0; pass < minPasses || time.Now().Before(until); pass++ {
		order.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		pid := tr.begin("bench", "pass", 0, "")
		for _, k := range keys {
			var gc *gcDelta
			if tr != nil {
				gc = startGC()
			}
			id := tr.begin("algo", "Engine.Run "+k, pid, "")
			v, d, err := solve(ctx, eng, in, k, seed)
			tr.end(id)
			if err != nil {
				return st, err
			}
			if gc != nil {
				alloc, _, _ := gc.stop()
				st.allocs[k] = append(st.allocs[k], alloc)
			}
			st.times[k] = append(st.times[k], d.Seconds())
			st.solves++
			if d <= slo {
				st.within++
			}
			if err := samePass(in, k, v, ref[k], refDigest[k]); err != nil {
				return st, fmt.Errorf("pass %d: %w", pass+1, err)
			}
		}
		tr.end(pid)
	}
	return st, nil
}

// medians reduces the samples to one median per problem.
func (st solveStats) medians() map[string]float64 {
	out := make(map[string]float64, len(st.times))
	for k, xs := range st.times {
		out[k] = median(xs)
	}
	return out
}

// setSuiteEndToEnd fills the end-to-end metrics a suite phase defines.
func setSuiteEndToEnd(m metrics, st solveStats) {
	meds := st.medians()
	per := make([]float64, 0, len(meds))
	sums := make(map[string]float64)
	for k, v := range meds {
		sums[classOf[k]] += v
		per = append(per, v*1000)
	}
	for _, c := range classes {
		m.set(c+"_s", sums[c])
	}
	m.set("p50_ms", quantile(per, 0.5))
	m.set("p99_ms", quantile(per, 0.99))
	m.set("slo_frac", frac(st.within, st.solves))
}

// runSuiteWorkload is suite-rmat and suite-torus.
func runSuiteWorkload(cfg config) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{metrics: make(metrics)}
	eng := gbbs.New(gbbs.WithThreads(cfg.threads), gbbs.WithSeed(inputSeed))
	defer eng.Close()

	// Set-up: build the input several times; setup_s is the median.
	var in suiteInput
	var setups []float64
	for r := 0; r < cfg.setupReps; r++ {
		in = suiteInput{}
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = buildInput(ctx, eng, cfg.input, inputSeed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.inputs = []inputInfo{
		{Name: in.name + "|sym|paperweights", N: in.sym.N(), M: in.sym.M()},
		{Name: in.name + " directed", N: in.dir.N(), M: in.dir.M()},
	}
	keys := suiteKeys
	if cfg.input.kind == "torus" {
		keys = without(keys, "scc") // the paper marks SCC "~" on the torus
	}

	// The first pass is the warm-up and the reference later passes must
	// reproduce; it is checked against the sequential references below.
	ref, _, err := runPass(ctx, eng, in, keys, inputSeed)
	if err != nil {
		return nil, err
	}
	refDigest, err := digestAll(in, ref)
	if err != nil {
		return nil, err
	}

	if !cfg.trace {
		st, err := measurePasses(ctx, eng, in, keys, inputSeed, ref, refDigest, deadline(cfg.seconds), cfg.minPasses, cfg.suiteSLO, passOrder(cfg), nil)
		if err != nil {
			return nil, err
		}
		setSuiteEndToEnd(out.metrics, st)
		out.metrics.set("setup_s", median(setups))
		out.metrics.set("live_heap_mib", liveHeapMiB())
		out.attempted = st.solves
		out.printf("%s: %d passes of %d problems; per-problem ms (min / q1 / median / q3):\n", in.name, len(st.times[keys[0]]), len(keys))
		for _, k := range keys {
			xs := st.times[k]
			out.printf("  %-12s %9.2f %9.2f %9.2f %9.2f\n", k, quantile(xs, 0)*1000, quantile(xs, 0.25)*1000, median(xs)*1000, quantile(xs, 0.75)*1000)
		}
	} else {
		if err := traceSuiteWorkload(ctx, cfg, eng, in, keys, ref, refDigest, out); err != nil {
			return nil, err
		}
	}

	// Correctness, outside every timed region: the 1-thread output must
	// equal the nproc output, and the reference pass must agree with the
	// sequential references.
	one := gbbs.New(gbbs.WithThreads(1), gbbs.WithSeed(inputSeed))
	defer one.Close()
	vals1, _, err := runPass(ctx, one, in, keys, inputSeed)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		if err := samePass(in, k, vals1[k], ref[k], refDigest[k]); err != nil {
			return nil, fmt.Errorf("1-thread pass against the %d-thread pass: %w", cfg.threads, err)
		}
		if err := checkSolution(in, k, ref[k]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceSuiteWorkload is the traced variant of a suite run: an untraced and
// a traced half of the measuring time (their difference is the tracing
// overhead), the thread sweep, and the layer probes.
func traceSuiteWorkload(ctx context.Context, cfg config, eng *gbbs.Engine, in suiteInput, keys []string,
	ref map[string]any, refDigest map[string]uint64, out *outcome) error {
	half := cfg.seconds / 2
	untraced, err := measurePasses(ctx, eng, in, keys, inputSeed, ref, refDigest, deadline(half), cfg.minPasses, cfg.suiteSLO, passOrder(cfg), nil)
	if err != nil {
		return err
	}
	out.tr = newTracer()
	gc := startGC()
	traced, err := measurePasses(ctx, eng, in, keys, inputSeed, ref, refDigest, deadline(half), cfg.minPasses, cfg.suiteSLO, passOrder(cfg), out.tr)
	if err != nil {
		return err
	}
	setRuntime(out.metrics, gc)
	u, t := make(metrics), make(metrics)
	setSuiteEndToEnd(u, untraced)
	setSuiteEndToEnd(t, traced)
	out.metrics.set("trace.overhead_frac", overhead(out, u, t, classMetricNames()))
	out.attempted = untraced.solves + traced.solves
	if err := algoLayer(ctx, cfg, in, keys, traced, out); err != nil {
		return err
	}
	return layerProbes(cfg, in, out, probeServeRead|probeServeUpdate)
}

// algoLayer sets the algo.* metrics from a traced phase and runs the
// thread sweep (1, 2, 4, ... up to nproc), printing the paper-style
// T1/Tp/speedup table.
func algoLayer(ctx context.Context, cfg config, in suiteInput, keys []string, traced solveStats, out *outcome) error {
	tp := traced.medians()
	sweep := map[int]map[string]time.Duration{}
	var counts []int
	for p := 1; p < cfg.threads; p *= 2 {
		counts = append(counts, p)
	}
	counts = append(counts, cfg.threads)
	for _, p := range counts[:len(counts)-1] {
		eng := gbbs.New(gbbs.WithThreads(p), gbbs.WithSeed(inputSeed))
		id := out.tr.begin("bench", fmt.Sprintf("pass threads=%d", p), 0, "")
		_, times, err := runPass(ctx, eng, in, keysWith(keys), inputSeed)
		out.tr.end(id)
		eng.Close()
		if err != nil {
			return err
		}
		sweep[p] = times
	}
	out.printf("\n%s: T1/Tp/speedup (Tp is the median of %d traced passes at %d threads)\n", in.name, len(traced.times[keys[0]]), cfg.threads)
	out.printf("%-12s", "problem")
	for _, p := range counts {
		out.printf(" %10s", fmt.Sprintf("T%d(ms)", p))
	}
	out.printf(" %8s\n", "speedup")
	for _, k := range suiteKeys {
		tpk, ok := tp[k]
		if !ok {
			// A problem the workload skips (SCC on the torus) is timed once
			// at nproc for its per-layer metric.
			eng := gbbs.New(gbbs.WithThreads(cfg.threads), gbbs.WithSeed(inputSeed))
			gc := startGC()
			_, d, err := solve(ctx, eng, in, k, inputSeed)
			alloc, _, _ := gc.stop()
			eng.Close()
			if err != nil {
				return err
			}
			tpk = d.Seconds()
			traced.allocs[k] = []float64{alloc}
		}
		t1 := sweep[1][k].Seconds()
		if cfg.threads == 1 {
			t1 = tpk
		}
		out.metrics.set("algo."+k+"_ms", tpk*1000)
		out.metrics.set("algo."+k+".speedup", t1/tpk)
		out.metrics.set("algo."+k+".alloc_mib", median(traced.allocs[k]))
		out.printf("%-12s", k)
		for _, p := range counts {
			t := tpk
			if p != cfg.threads {
				t = sweep[p][k].Seconds()
			}
			out.printf(" %10.2f", t*1000)
		}
		out.printf(" %8.2f\n", t1/tpk)
	}
	return nil
}

// keysWith returns keys plus any paper problem it lacks, so the thread
// sweep covers every per-layer problem.
func keysWith(keys []string) []string {
	if len(keys) == len(suiteKeys) {
		return keys
	}
	return suiteKeys
}

// overhead reports traced-minus-untraced for the given end-to-end metrics
// and returns the relative overhead of their sum.
func overhead(out *outcome, untraced, traced metrics, names []string) float64 {
	var u, t float64
	out.printf("\ntracing overhead (traced - untraced):\n")
	for _, n := range names {
		out.printf("  %-18s %12.6g -> %12.6g %s\n", n, untraced[n].Value, traced[n].Value, untraced[n].Unit)
		u += untraced[n].Value
		t += traced[n].Value
	}
	if u == 0 {
		return 0
	}
	return (t - u) / u
}

func classMetricNames() []string {
	out := make([]string, len(classes))
	for i, c := range classes {
		out[i] = c + "_s"
	}
	return out
}

// passOrder draws the problem order of the suite passes from the seed.
func passOrder(cfg config) *rand.Rand { return rand.New(rand.NewPCG(cfg.seed, 0x0de5)) }

func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

func without(keys []string, drop string) []string {
	var out []string
	for _, k := range keys {
		if k != drop {
			out = append(out, k)
		}
	}
	return out
}
