// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed measuring time and prints, as the last line of its
// standard output, a JSON object with the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run):
//
//	perfbench --workload suite-rmat --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	suite-rmat    the paper's 15 problems on a symmetrized RMAT graph (+ its
//	              directed variant for SCC) through a warm gbbs.Engine
//	suite-torus   the same problems (SCC skipped) on a 3D torus
//	serve-read    open-loop POST /v1/run traffic against serve.Server
//
// Every run checks its outputs (see check.go); a wrong answer exits non-zero
// without printing a result. A human-readable report, the machine context
// and (for traced runs) the recorded spans are written under
// .bench_build/perfbench/ in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// gcPercent is the benchmark process's GOGC (see main).
const gcPercent = 400

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects a run's values under the units declared in
// BENCHMARK.json (see config.go).
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	metrics           metrics
	report            strings.Builder // human-readable report lines
	inputs            []inputInfo     // machine context: the inputs' sizes
	tr                *tracer         // non-nil for traced runs
}

// inputInfo records one input graph's size for the machine context.
type inputInfo struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	M    int    `json:"m"`
}

func (o *outcome) printf(format string, args ...any) { fmt.Fprintf(&o.report, format, args...) }

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadList, ", "))
	seed := flag.Uint64("seed", 1, "seed for every generated input and schedule")
	seconds := flag.Float64("seconds", 20, "measuring time of the run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()

	cfg, ok := configFor(*workload, *seed, *seconds)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadList, ", "))
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	// The suite allocates hundreds of MiB per pass over a ~17 MiB live
	// heap, so at the default GOGC=100 the collector runs every few
	// milliseconds and its mark worker takes one of the few CPUs from the
	// algorithms' threads. On a 2-CPU machine that alone spread the
	// run-to-run class times by about 12%; at 400 the spread halves. The
	// runtime.* metrics still count every cycle and pause.
	debug.SetGCPercent(gcPercent)
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
		os.Exit(1)
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	if err := checkDeclared(cfg.trace, out.metrics); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := writeRecord(cfg, out, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing record: %v\n", err)
		os.Exit(1)
	}
	os.Stderr.WriteString(out.report.String())
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// run dispatches one workload run.
func run(cfg config) (*outcome, error) {
	switch cfg.workload {
	case "suite-rmat", "suite-torus":
		return runSuiteWorkload(cfg)
	case "serve-read":
		return runServeReadWorkload(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// checkDeclared makes sure a run emits exactly the metrics its mode
// declares, so a missing or misspelled metric fails loudly here rather than
// silently in whatever reads the result.
func checkDeclared(traced bool, m metrics) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	var missing []string
	for _, d := range want {
		if _, ok := m[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 || len(m) != len(want) {
		return fmt.Errorf("emitted %d metrics, declared %d; missing %v", len(m), len(want), missing)
	}
	return nil
}

// machineContext is stored with every result record.
type machineContext struct {
	NumCPU      int         `json:"nproc"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	GoVersion   string      `json:"go_version"`
	GCPercent   int         `json:"gogc"`
	CPUModel    string      `json:"cpu_model"`
	Inputs      []inputInfo `json:"inputs"`
	CacheBytes  int64       `json:"cache_bytes,omitempty"`
	ResultBytes int64       `json:"result_cache_bytes,omitempty"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeRecord stores the result, the machine context, the report and (for
// traced runs) the spans under .bench_build/perfbench/.
func writeRecord(cfg config, out *outcome, res result) error {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	ctx := machineContext{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GCPercent: gcPercent, CPUModel: cpuModel(), Inputs: out.inputs,
	}
	if strings.HasPrefix(cfg.workload, "serve-") {
		ctx.CacheBytes, ctx.ResultBytes = cfg.cacheBytes, cfg.resultBytes
	}
	if out.tr != nil {
		self := out.tr.selfTimes()
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Fprintf(&out.report, "\nself time per layer over %d spans:\n", out.tr.count())
		for _, l := range layers {
			fmt.Fprintf(&out.report, "  %-10s %12.3f ms\n", l, ms(self[l]))
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(&out.report, "\n%s seed %d: %d attempted, %d failed\n", cfg.workload, cfg.seed, res.Attempted, res.Failed)
	for _, k := range names {
		fmt.Fprintf(&out.report, "  %-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	rec := struct {
		Workload string         `json:"workload"`
		Seed     uint64         `json:"seed"`
		Seconds  float64        `json:"seconds"`
		Traced   bool           `json:"traced"`
		Time     string         `json:"time"`
		Context  machineContext `json:"context"`
		Result   result         `json:"result"`
		Report   string         `json:"report"`
	}{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, time.Now().UTC().Format(time.RFC3339), ctx, res, out.report.String()}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if out.tr != nil {
		return out.tr.write(filepath.Join(dir, base+".spans.json"))
	}
	return nil
}
