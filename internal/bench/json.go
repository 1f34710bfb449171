package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// JSONReport is the machine-readable benchmark trajectory record `make
// bench-json` writes (as BENCH_<label>.json): the paper's 15-problem suite
// timed at 1 thread and at the full worker count on one RMAT input, so
// performance PRs can quote a recorded baseline and successors can diff
// against it.
type JSONReport struct {
	// Label identifies the snapshot ("pre-pool", a PR number, a host name).
	Label string `json:"label"`
	// GeneratedAt is the wall-clock time the report was produced.
	GeneratedAt time.Time `json:"generated_at"`
	// Scale is the log2 vertex count of the RMAT input measured.
	Scale int `json:"scale"`
	// Threads is the parallel worker count of the TP column.
	Threads int `json:"threads"`
	// NumCPU records the machine's hardware parallelism for context.
	NumCPU int `json:"num_cpu"`
	// Seed is the input and algorithm seed.
	Seed uint64 `json:"seed"`
	// Algorithms holds one entry per paper-suite problem, in table order.
	Algorithms []JSONAlgo `json:"algorithms"`
	// Incremental compares static connectivity recomputation against the
	// incremental update path after a small edge batch (the versioned graph
	// store's workload).
	Incremental IncrementalResult `json:"incremental"`
}

// JSONAlgo is one problem's measurements inside a JSONReport.
type JSONAlgo struct {
	// Key is the registry name ("bfs", "kcore", ...).
	Key string `json:"key"`
	// Name is the paper's table row label.
	Name string `json:"name"`
	// T1NS is the single-thread time in nanoseconds (0 when skipped).
	T1NS int64 `json:"t1_ns,omitempty"`
	// TPNS is the Threads-worker time in nanoseconds.
	TPNS int64 `json:"tp_ns,omitempty"`
	// Speedup is T1NS / TPNS when both were measured.
	Speedup float64 `json:"speedup,omitempty"`
	// Skipped marks problems the input cannot run (e.g. SCC without a
	// directed variant).
	Skipped bool `json:"skipped,omitempty"`
}

// WriteJSON measures the paper suite on an RMAT input per c and writes a
// JSONReport to w. The single-thread column is skipped when c.SkipSingle.
func WriteJSON(w io.Writer, label string, c Config) error {
	threads := c.Threads
	if threads <= 0 {
		threads = runtime.NumCPU()
	}
	in := MakeRMATInput("RMAT", c.Scale, 8, false, c.Seed)
	rows := RunSuite(in, c.Seed, threads, c.SkipSingle)
	suite := Suite(c.Seed)
	rep := JSONReport{
		Label:       label,
		GeneratedAt: time.Now().UTC(),
		Scale:       c.Scale,
		Threads:     threads,
		NumCPU:      runtime.NumCPU(),
		Seed:        c.Seed,
		Algorithms:  make([]JSONAlgo, 0, len(rows)),
	}
	for i, r := range rows {
		a := JSONAlgo{Name: r.Algo, Skipped: r.Skipped}
		if i < len(suite) {
			a.Key = suite[i].Key
		}
		if !r.Skipped {
			a.T1NS = int64(r.T1)
			a.TPNS = int64(r.TP)
			a.Speedup = r.Speedup
		}
		rep.Algorithms = append(rep.Algorithms, a)
	}
	// A batch of ~1000 edges against a 2^scale-vertex graph: small relative
	// to the graph, as store updates are.
	rep.Incremental = MeasureIncremental(c.Scale, 1000, threads, c.Seed)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
