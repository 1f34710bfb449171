package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// requestIDHeader carries a request's ID from the client span to the
// server span, so the two can be joined.
const requestIDHeader = "X-Perfbench-Request"

// span is one recorded interval at a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(layer, name string, parent uint64, req string) uint64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: uint64(len(t.spans) + 1), Parent: parent, Layer: layer, Name: name, Req: req, Start: now})
	return uint64(len(t.spans))
}

// end closes the span id.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(layer, name string, parent uint64, f func()) {
	id := t.begin(layer, name, parent, "")
	f()
	t.end(id)
}

// count reports the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// handler wraps the server's handler: each request gets a server span
// named after its route, tied to the client span through the request ID.
func (t *tracer) handler(layer func(r *http.Request) string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin(layer(r), "ServeHTTP "+r.Method+" "+r.URL.Path, 0, r.Header.Get(requestIDHeader))
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// link sets each server span's parent to the client span carrying the same
// request ID. Called once, after the traffic has ended.
func (t *tracer) link() {
	client := make(map[string]uint64)
	for _, s := range t.spans {
		if s.Layer == "client" && s.Req != "" {
			client[s.Req] = s.ID
		}
	}
	for i, s := range t.spans {
		if s.Layer != "client" && s.Req != "" && s.Parent == 0 {
			t.spans[i].Parent = client[s.Req]
		}
	}
}

// serverNS returns, per request ID, the duration of its server span.
func (t *tracer) serverNS() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64)
	for _, s := range t.spans {
		if s.Layer != "client" && s.Req != "" {
			out[s.Req] = s.End - s.Start
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.link()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Layer] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, lo, hi int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if open && s <= hi {
			hi = max(hi, e)
			continue
		}
		if open {
			total += hi - lo
		}
		lo, hi, open = s, e, true
	}
	if open {
		total += hi - lo
	}
	return total
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	t.link()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// reqID renders request IDs.
func reqID(n uint64) string { return strconv.FormatUint(n, 36) }
