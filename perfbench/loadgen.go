package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/gbbs/serve"
)

// op is one scheduled request of an open loop and, after the run, its
// outcome.
type op struct {
	due    time.Duration // offset from the loop's start
	write  bool          // an edge batch rather than a read
	method string
	path   string
	body   []byte
	algo   string
	graph  string // serve-update: target graph
	item   int    // serve-read: catalogue index
	fresh  bool   // serve-read: a one-off input, always a cold build
	batch  int    // serve-update: index of the write's batch
	src    uint32 // serve-update: the read's source vertex
	single bool   // a read asking for one thread

	id         string
	dispatched time.Time // when the generator handed it to a connection
	start, end time.Time // request sent, response read
	status     int
	err        error
	run        serve.RunResponse       // reads
	edges      serve.EdgeBatchResponse // writes
}

func (o *op) ok() bool { return o.err == nil && o.status/100 == 2 }

// lateness is how far behind schedule the generator dispatched the op.
func (o *op) lateness(start time.Time) time.Duration { return o.dispatched.Sub(start.Add(o.due)) }

// latency is the op's latency measured from its due time.
func (o *op) latency(start time.Time) time.Duration { return o.end.Sub(start.Add(o.due)) }

// loadGen drives one serve.Server over loopback HTTP.
type loadGen struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	tr     atomic.Pointer[tracer]
	nextID atomic.Uint64
	conns  int
}

// newLoadGen starts srv behind an httptest server whose handler records a
// server span per request while a tracer is installed.
func newLoadGen(srv *serve.Server, conns int) *loadGen {
	lg := &loadGen{srv: srv, conns: conns}
	layer := func(r *http.Request) string {
		if strings.HasPrefix(r.URL.Path, "/v1/graphs/") {
			return "store"
		}
		return "serve"
	}
	lg.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lg.tr.Load().handler(layer, srv).ServeHTTP(w, r)
	}))
	lg.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
	return lg
}

func (lg *loadGen) close() {
	lg.client.CloseIdleConnections()
	lg.ts.Close()
	lg.srv.Close()
}

// send performs one request inside a client span and decodes a 2xx JSON
// body into out.
func (lg *loadGen) send(o *op, out any) {
	o.id = reqID(lg.nextID.Add(1))
	tr := lg.tr.Load()
	req, err := http.NewRequest(o.method, lg.ts.URL+o.path, bytes.NewReader(o.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set(requestIDHeader, o.id)
	req.Header.Set("Content-Type", "application/json")
	id := tr.begin("client", o.method+" "+o.path, 0, o.id)
	o.start = time.Now()
	resp, err := lg.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
	}
	o.end = time.Now()
	tr.end(id)
	if err != nil {
		o.err = err
		return
	}
	if o.status/100 == 2 && out != nil {
		o.err = json.Unmarshal(body, out)
	} else if o.status/100 != 2 {
		o.err = fmt.Errorf("%s %s: status %d: %s", o.method, o.path, o.status, strings.TrimSpace(string(body)))
	}
}

// call is a synchronous request outside the open loop (set-up, checks).
func (lg *loadGen) call(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	o := &op{method: method, path: path, body: body}
	lg.send(o, out)
	return o.err
}

// phase is the outcome of one open-loop run.
type phase struct {
	start    time.Time // the loop's time zero
	ops      []*op
	measured []*op // ops due after the warm-up

	// Stats-accessor deltas over the measured part.
	graphEvictions, resultEvictions int64
	poolHits, poolGets              int64

	after statsSnapshot // the stats accessors at the end

	// Limiter samples (traced runs only).
	busy, queued []float64
}

// openLoop runs the schedule: a single generator dispatches each op at its
// due time to at most conns connections, regardless of whether earlier
// ops have completed. Ops due before warmup are not recorded.
func (lg *loadGen) openLoop(ops []*op, warmup time.Duration, sample bool) *phase {
	p := &phase{ops: ops}
	queue := make(chan *op, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < lg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range queue {
				if o.write {
					lg.send(o, &o.edges)
				} else {
					lg.send(o, &o.run)
				}
			}
		}()
	}
	var before statsSnapshot
	stop := make(chan struct{})
	fired := make(chan struct{})
	p.start = time.Now()
	warmEnd := time.AfterFunc(warmup, func() {
		defer close(fired)
		before = lg.snapshot()
		if sample {
			lg.sampleLimiter(p, stop)
		}
	})
	timer := time.NewTimer(0)
	<-timer.C
	for _, o := range ops {
		if wait := time.Until(p.start.Add(o.due)); wait > 0 {
			timer.Reset(wait)
			<-timer.C
		}
		o.dispatched = time.Now()
		queue <- o
	}
	close(queue)
	wg.Wait()
	close(stop)
	if !warmEnd.Stop() {
		<-fired
	}
	after := lg.snapshot()
	p.after = after
	p.graphEvictions = after.graph.Evictions - before.graph.Evictions
	p.resultEvictions = after.results.Evictions - before.results.Evictions
	p.poolHits = after.pool.Hits - before.pool.Hits
	p.poolGets = p.poolHits + after.pool.Misses - before.pool.Misses
	for _, o := range ops {
		if o.due >= warmup {
			p.measured = append(p.measured, o)
		}
	}
	return p
}

// statsSnapshot is one reading of the server's stats accessors.
type statsSnapshot struct {
	graph   serve.CacheStats
	results serve.ResultCacheStats
	pool    serve.EnginePoolStats
}

func (lg *loadGen) snapshot() statsSnapshot {
	tr := lg.tr.Load()
	var s statsSnapshot
	tr.do("serve", "Cache.Stats", 0, func() { s.graph = lg.srv.Cache().Stats() })
	tr.do("serve", "ResultCache.Stats", 0, func() { s.results = lg.srv.Results().Stats() })
	tr.do("serve", "EnginePool.Stats", 0, func() { s.pool = lg.srv.Engines().Stats() })
	return s
}

// tenants are the serve-read traffic's tenants, their admission weights
// and their shares of the requests.
var tenants = []struct {
	name   string
	weight int
	share  float64
}{{"gold", 4, 0.5}, {"silver", 2, 0.3}, {"bronze", 1, 0.2}}

func tenantWeights() map[string]int {
	w := make(map[string]int)
	for _, t := range tenants {
		w[t.name] = t.weight
	}
	return w
}

// sampleLimiter reads the limiter every 5 ms until stop closes.
func (lg *loadGen) sampleLimiter(p *phase, stop <-chan struct{}) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	l := lg.srv.Limiter()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		tr := lg.tr.Load()
		var busy, queued float64
		tr.do("serve", "Limiter.InUse", 0, func() {
			busy = float64(l.InUse()) / float64(l.Capacity())
			for _, t := range tenants {
				queued += float64(l.Queued(t.name))
			}
			queued += float64(l.Queued(serve.DefaultTenant))
		})
		p.busy = append(p.busy, busy)
		p.queued = append(p.queued, queued)
	}
}

// readLatencies splits measured reads into latencies (ms, from due time,
// successful reads only) and counts attempted, failed and within-limit.
func (p *phase) readLatencies(slo time.Duration) (lat []float64, attempted, failed, within int) {
	for _, o := range p.measured {
		if o.write {
			continue
		}
		attempted++
		if !o.ok() {
			failed++
			continue
		}
		d := o.latency(p.start)
		lat = append(lat, ms(d))
		if d <= slo {
			within++
		}
	}
	return
}

// setEndToEnd fills the end-to-end metrics a serve phase defines: latency
// percentiles and slo_frac over reads, and per class the summed per-problem
// median of the algorithm time the server reported for the single-thread
// catalogue reads it executed (one thread count, so each problem's
// executions are alike).
func (p *phase) setEndToEnd(m metrics, slo time.Duration) (attempted, failed int) {
	lat, attempted, failed, within := p.readLatencies(slo)
	m.set("p50_ms", quantile(lat, 0.5))
	m.set("p99_ms", quantile(lat, 0.99))
	m.set("slo_frac", frac(within, attempted))
	perAlgo := make(map[string][]float64)
	for _, o := range p.measured {
		if !o.write && !o.fresh && o.single && o.ok() && o.run.ResultCache == "miss" {
			perAlgo[o.algo] = append(perAlgo[o.algo], o.run.Result.Elapsed.Seconds())
		}
	}
	sums := make(map[string]float64)
	for a, xs := range perAlgo {
		sums[classOf[a]] += median(xs)
	}
	for _, c := range classes {
		m.set(c+"_s", sums[c])
	}
	for _, o := range p.measured {
		if o.write {
			attempted++
			if !o.ok() {
				failed++
			}
		}
	}
	return attempted, failed
}

// setServeLayer fills the serve.* metrics from a traced phase.
func (p *phase) setServeLayer(m metrics, tr *tracer) {
	server := tr.serverNS()
	var hit, graphHit, cold, algo, overhead, transport []float64
	var nHit, nGraph, nCold, reads int
	for _, o := range p.measured {
		if o.write || !o.ok() {
			continue
		}
		reads++
		client := o.end.Sub(o.start)
		if ns, ok := server[o.id]; ok {
			transport = append(transport, ms(client-time.Duration(ns)))
		}
		switch {
		case o.run.ResultCache == "hit":
			nHit++
			hit = append(hit, ms(client))
			continue
		case o.run.Cache == "miss":
			nCold++
			cold = append(cold, ms(client))
		default:
			nGraph++
			graphHit = append(graphHit, ms(client))
			if ns, ok := server[o.id]; ok {
				overhead = append(overhead, ms(time.Duration(ns)-o.run.Result.Elapsed))
			}
		}
		algo = append(algo, ms(o.run.Result.Elapsed))
	}
	var late []float64
	for _, o := range p.measured {
		late = append(late, ms(o.lateness(p.start)))
	}
	m.set("serve.result_hit_frac", frac(nHit, reads))
	m.set("serve.graph_hit_frac", frac(nGraph, reads))
	m.set("serve.cold_frac", frac(nCold, reads))
	m.set("serve.hit_ms", median(hit))
	m.set("serve.transport_ms", median(transport))
	m.set("serve.graph_hit_ms", median(graphHit))
	m.set("serve.cold_ms", median(cold))
	m.set("serve.algo_ms", median(algo))
	m.set("serve.overhead_ms", median(overhead))
	m.set("serve.limiter_busy_frac", mean(p.busy))
	m.set("serve.limiter_queued_mean", mean(p.queued))
	m.set("serve.graph_evictions", float64(p.graphEvictions))
	m.set("serve.result_evictions", float64(p.resultEvictions))
	m.set("serve.engine_pool_hit_frac", float64(p.poolHits)/float64(max(p.poolGets, 1)))
	m.set("serve.gen_late_ms", quantile(late, 0.99))
}

func failure(err error) string {
	if err == nil {
		return ""
	}
	return "; first failure: " + err.Error()
}

// shares reports the measured request-class shares for the report.
func (p *phase) shares() string {
	var hit, graphHit, cold, store, writes, failed int
	var firstErr error
	var late []float64
	lat := make(map[string][]float64) // due-time latency per request class
	for _, o := range p.measured {
		late = append(late, ms(o.lateness(p.start)))
		if o.ok() {
			class := o.run.Cache + "/" + o.run.ResultCache
			switch {
			case o.write:
				class = "write"
			case o.run.Cache == "store":
				class = "store/" + o.algo
			}
			lat[class] = append(lat[class], ms(o.latency(p.start)))
		}
		switch {
		case !o.ok():
			failed++
			if firstErr == nil {
				firstErr = o.err
			}
		case o.write:
			writes++
		case o.run.ResultCache == "hit":
			hit++
		case o.run.Cache == "miss":
			cold++
		case o.run.Cache == "store":
			store++
		default:
			graphHit++
		}
	}
	return fmt.Sprintf("%d ops: %d result hits, %d graph hits, %d cold builds, %d store reads, %d writes, %d failed; "+
		"generator late by %.3f ms at p50, %.3f ms at p99; "+
		"graph cache %d/%d B (%d evictions), result cache %d/%d B (%d evictions)",
		len(p.measured), hit, graphHit, cold, store, writes, failed, median(late), quantile(late, 0.99),
		p.after.graph.SizeBytes, p.after.graph.BudgetBytes, p.graphEvictions,
		p.after.results.SizeBytes, p.after.results.BudgetBytes, p.resultEvictions) + failure(firstErr) + classLatencies(lat)
}

// classLatencies renders each request class's latency percentiles; the
// class is "<graph cache>/<result cache>" as the response reports them.
func classLatencies(lat map[string][]float64) string {
	classes := make([]string, 0, len(lat))
	for c := range lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var b strings.Builder
	var reads []float64
	for c, xs := range lat {
		if c != "write" {
			reads = append(reads, xs...)
		}
	}
	fmt.Fprintf(&b, "\n  %-12s %5d requests, latency from due time p50 %8.3f ms, p90 %8.3f ms, p99 %8.3f ms",
		"all reads", len(reads), median(reads), quantile(reads, 0.9), quantile(reads, 0.99))
	for _, c := range classes {
		xs := lat[c]
		fmt.Fprintf(&b, "\n  %-12s %5d requests, latency from due time p50 %8.3f ms, p90 %8.3f ms, p99 %8.3f ms",
			c, len(xs), median(xs), quantile(xs, 0.9), quantile(xs, 0.99))
	}
	return b.String()
}
