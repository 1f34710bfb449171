package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/gbbs/serve"
)

// doJSON issues method/path with an optional JSON body, decodes any response
// body into out, and returns the HTTP status.
func doJSON(t *testing.T, ts *httptest.Server, method, path, body string, out any) int {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// createGraph PUTs a stored graph and fails the test on any non-201.
func createGraph(t *testing.T, ts *httptest.Server, name, body string) {
	t.Helper()
	var e serve.ErrorResponse
	if status := doJSON(t, ts, http.MethodPut, "/v1/graphs/"+name, body, &e); status != http.StatusCreated {
		t.Fatalf("create %s: status = %d (%+v)", name, status, e)
	}
}

func TestGraphStoreLifecycle(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 4})

	createGraph(t, ts, "g1", `{"source":"path:100","transforms":["symmetrize"]}`)

	// Duplicate name: 409, versions are never reused.
	var e serve.ErrorResponse
	if status := doJSON(t, ts, http.MethodPut, "/v1/graphs/g1", `{"source":"path:10"}`, &e); status != http.StatusConflict {
		t.Fatalf("duplicate create status = %d, want 409", status)
	}
	// Invalid bodies and specs are 400s.
	for _, c := range []struct{ name, body string }{
		{"g2", `{"source":""}`},
		{"g2", `{"source":"warp:9"}`},
		{"g2", `{not json`},
		{"g2", `{"source":"path:10","bogus":1}`},
		{"bad,name", `{"source":"path:10"}`},
	} {
		if status := doJSON(t, ts, http.MethodPut, "/v1/graphs/"+c.name, c.body, &e); status != http.StatusBadRequest {
			t.Errorf("create %s %s: status = %d, want 400", c.name, c.body, status)
		}
	}

	var list serve.GraphListResponse
	if status := doJSON(t, ts, http.MethodGet, "/v1/graphs", "", &list); status != http.StatusOK {
		t.Fatalf("list status = %d", status)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "g1" || list.Graphs[0].Version != 1 {
		t.Fatalf("list = %+v", list.Graphs)
	}
	if list.Graphs[0].N != 100 || !list.Graphs[0].Symmetric || list.Graphs[0].DeltaEdges != 0 {
		t.Fatalf("g1 info = %+v", list.Graphs[0])
	}

	// A run addressed by name executes on the stored snapshot; the
	// fingerprint embeds the snapshot ID, not a source spec.
	var run serve.RunResponse
	if status := postRun(t, ts, `{"graph":"g1","algorithm":"cc"}`, &run); status != http.StatusOK {
		t.Fatalf("run status = %d", status)
	}
	if run.Cache != "store" || run.Graph.N != 100 {
		t.Fatalf("stored-graph run = %+v", run)
	}
	if !strings.Contains(run.Key, "store(name=g1,version=1)") {
		t.Fatalf("fingerprint %q does not embed the snapshot ID", run.Key)
	}

	if status := doJSON(t, ts, http.MethodDelete, "/v1/graphs/g1", "", nil); status != http.StatusNoContent {
		t.Fatalf("delete status = %d, want 204", status)
	}
	if status := doJSON(t, ts, http.MethodDelete, "/v1/graphs/g1", "", &e); status != http.StatusNotFound {
		t.Fatalf("second delete status = %d, want 404", status)
	}
	if status := postRun(t, ts, `{"graph":"g1","algorithm":"cc"}`, &e); status != http.StatusNotFound {
		t.Fatalf("run after delete status = %d, want 404", status)
	}
}

func TestGraphRunValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 2})
	createGraph(t, ts, "g", `{"source":"path:50","transforms":["sym"]}`)
	cases := []struct {
		body string
		want int
	}{
		{`{"graph":"g","source":"path:10","algorithm":"cc"}`, http.StatusBadRequest}, // both
		{`{"algorithm":"cc"}`, http.StatusBadRequest},                                // neither
		{`{"graph":"g","transforms":["sym"],"algorithm":"cc"}`, http.StatusBadRequest},
		{`{"graph":"nope","algorithm":"cc"}`, http.StatusNotFound},
	}
	for _, c := range cases {
		var e serve.ErrorResponse
		if status := postRun(t, ts, c.body, &e); status != c.want {
			t.Errorf("%s: status = %d, want %d (%+v)", c.body, status, c.want, e)
		}
	}
}

// TestStoredGraphDefaultPartition checks that PUT /v1/graphs/{name} rejects
// the retired "shards" field as an unknown field and stores nothing.
func TestStoredGraphDefaultPartition(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 4})
	var e serve.ErrorResponse
	if status := doJSON(t, ts, http.MethodPut, "/v1/graphs/wiki", `{"source":"rmat:8","transforms":["symmetrize"],"shards":"4"}`, &e); status != http.StatusBadRequest {
		t.Fatalf("create with shards: status = %d, want 400", status)
	}
	if !strings.Contains(e.Error, `unknown field "shards"`) {
		t.Fatalf("create with shards: error %q does not name the shards field", e.Error)
	}
	var list serve.GraphListResponse
	if status := doJSON(t, ts, http.MethodGet, "/v1/graphs", "", &list); status != http.StatusOK {
		t.Fatalf("list status = %d", status)
	}
	if len(list.Graphs) != 0 {
		t.Fatalf("rejected create stored a graph: %+v", list.Graphs)
	}
}

// TestEdgeUpdateNeverServesStaleResult is the acceptance check of the
// version-aware result cache: a run after POSTing edges is a result-cache
// miss whose fingerprint embeds the new version — never a stale hit.
func TestEdgeUpdateNeverServesStaleResult(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 4})
	createGraph(t, ts, "g", `{"source":"path:100","transforms":["symmetrize"]}`)
	runBody := `{"graph":"g","algorithm":"cc"}`

	var before serve.RunResponse
	if status := postRun(t, ts, runBody, &before); status != http.StatusOK {
		t.Fatalf("first run status = %d", status)
	}
	if before.ResultCache != "miss" || !strings.Contains(before.Result.Summary, "1 components") {
		t.Fatalf("first run = %+v", before)
	}
	var repeat serve.RunResponse
	if status := postRun(t, ts, runBody, &repeat); status != http.StatusOK || repeat.ResultCache != "hit" {
		t.Fatalf("repeat run = %d/%q, want 200/hit", status, repeat.ResultCache)
	}

	// Insert an edge that does not change connectivity (path is connected);
	// the version must bump and the cached result must become unreachable.
	var batch serve.EdgeBatchResponse
	if status := doJSON(t, ts, http.MethodPost, "/v1/graphs/g/edges", `{"edges":[[0,50]]}`, &batch); status != http.StatusOK {
		t.Fatalf("edges status = %d", status)
	}
	if batch.Version != 2 || batch.Added != 2 || batch.Graph.DeltaEdges != 2 {
		t.Fatalf("batch response = %+v, want version 2 with 2 directed edges added", batch)
	}
	if batch.InvalidatedResults != 1 {
		t.Fatalf("invalidated %d result entries, want 1", batch.InvalidatedResults)
	}

	var after serve.RunResponse
	if status := postRun(t, ts, runBody, &after); status != http.StatusOK {
		t.Fatalf("post-update run status = %d", status)
	}
	if after.ResultCache != "miss" {
		t.Fatalf("run after edge update was served from cache: %+v", after)
	}
	if !strings.Contains(after.Key, "store(name=g,version=2)") || after.Key == before.Key {
		t.Fatalf("post-update fingerprint %q does not reflect version 2 (was %q)", after.Key, before.Key)
	}
	if after.Graph.M != before.Graph.M+2 {
		t.Fatalf("post-update M = %d, want %d", after.Graph.M, before.Graph.M+2)
	}

	// A re-applied identical batch is a no-op: same version, nothing added,
	// nothing invalidated, and the version-2 result now hits.
	if status := doJSON(t, ts, http.MethodPost, "/v1/graphs/g/edges", `{"edges":[[0,50]]}`, &batch); status != http.StatusOK {
		t.Fatalf("idempotent edges status = %d", status)
	}
	if batch.Version != 2 || batch.Added != 0 || batch.InvalidatedResults != 0 {
		t.Fatalf("idempotent batch response = %+v", batch)
	}
	var again serve.RunResponse
	if status := postRun(t, ts, runBody, &again); status != http.StatusOK || again.ResultCache != "hit" {
		t.Fatalf("run after no-op batch = %d/%q, want 200/hit", status, again.ResultCache)
	}
}

// TestIncrCCOverStore runs incrcc through the serving layer across updates:
// the first run seeds the stored labelling, later runs advance it
// incrementally, and the answers match a forced full recomputation.
func TestIncrCCOverStore(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 4})
	// An 8x8 grid: 64 vertices, connected, so every round's batch inserts
	// shortcut edges without changing the component count.
	createGraph(t, ts, "g", `{"source":"grid:8","transforms":["symmetrize"]}`)
	runBody := `{"graph":"g","algorithm":"incrcc"}`

	var first serve.RunResponse
	if status := postRun(t, ts, runBody, &first); status != http.StatusOK {
		t.Fatalf("first incrcc status = %d", status)
	}
	if !strings.Contains(first.Result.Summary, "1 components") {
		t.Fatalf("grid incrcc summary = %q", first.Result.Summary)
	}

	for round := 0; round < 3; round++ {
		body := fmt.Sprintf(`{"edges":[[%d,%d],[%d,%d]]}`, round, 60+round, round+4, 50+round)
		var batch serve.EdgeBatchResponse
		if status := doJSON(t, ts, http.MethodPost, "/v1/graphs/g/edges", body, &batch); status != http.StatusOK {
			t.Fatalf("round %d edges status = %d", round, status)
		}
		var incr, full serve.RunResponse
		if status := postRun(t, ts, runBody, &incr); status != http.StatusOK {
			t.Fatalf("round %d incrcc status = %d", round, status)
		}
		// rebuild=true ignores the stored state and recomputes from the full
		// graph; labellings are canonical, so the summaries must agree.
		if status := postRun(t, ts, `{"graph":"g","algorithm":"incrcc","opts":{"rebuild":true}}`, &full); status != http.StatusOK {
			t.Fatalf("round %d rebuild status = %d", round, status)
		}
		if incr.Result.Summary != full.Result.Summary {
			t.Fatalf("round %d: incremental summary %q != rebuild summary %q", round, incr.Result.Summary, full.Result.Summary)
		}
		if incr.ResultCache != "miss" {
			t.Fatalf("round %d: incrcc after update served stale cache entry", round)
		}
	}
}

func TestEdgeBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 2})
	createGraph(t, ts, "g", `{"source":"path:50","transforms":["sym"]}`)
	cases := []struct {
		path, body string
		want       int
		errSub     string
	}{
		{"/v1/graphs/nope/edges", `{"edges":[[0,1]]}`, http.StatusNotFound, "unknown graph"},
		{"/v1/graphs/g/edges", `{"edges":[]}`, http.StatusBadRequest, "empty edge batch"},
		{"/v1/graphs/g/edges", `{"edges":[[0,1,7]]}`, http.StatusBadRequest, "3 elements, want 2"},
		{"/v1/graphs/g/edges", `{"edges":[[0]]}`, http.StatusBadRequest, "1 elements, want 2"},
		{"/v1/graphs/g/edges", `{"edges":[[0,50]]}`, http.StatusBadRequest, "out of range"},
		{"/v1/graphs/g/edges", `{"edges":[[-1,0]]}`, http.StatusBadRequest, "out of range"},
		{"/v1/graphs/g/edges", `{not json`, http.StatusBadRequest, "decoding"},
	}
	for _, c := range cases {
		var e serve.ErrorResponse
		if status := doJSON(t, ts, http.MethodPost, c.path, c.body, &e); status != c.want {
			t.Errorf("%s %s: status = %d, want %d", c.path, c.body, status, c.want)
		} else if !strings.Contains(e.Error, c.errSub) {
			t.Errorf("%s: error %q does not mention %q", c.body, e.Error, c.errSub)
		}
	}
}

func TestEdgeBatchBodyCap(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 2, MaxBodyBytes: 1024})
	createGraph(t, ts, "g", `{"source":"path:50","transforms":["sym"]}`)
	// ~2000 bytes of edges against a 1 KiB cap: rejected with 413 before any
	// parallel work is admitted.
	var sb strings.Builder
	sb.WriteString(`{"edges":[`)
	for i := 0; i < 300; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "[%d,%d]", i%50, (i+1)%50)
	}
	sb.WriteString("]}")
	var e serve.ErrorResponse
	if status := doJSON(t, ts, http.MethodPost, "/v1/graphs/g/edges", sb.String(), &e); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch status = %d, want 413 (%+v)", status, e)
	}
	// A small batch still fits under the tightened cap.
	var batch serve.EdgeBatchResponse
	if status := doJSON(t, ts, http.MethodPost, "/v1/graphs/g/edges", `{"edges":[[0,5]]}`, &batch); status != http.StatusOK {
		t.Fatalf("small batch status = %d", status)
	}
}

func TestCacheInvalidateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 2})
	var run serve.RunResponse
	if status := postRun(t, ts, `{"source":"path:60","transforms":["sym"],"algorithm":"cc"}`, &run); status != http.StatusOK {
		t.Fatalf("run status = %d", status)
	}

	var e serve.ErrorResponse
	if status := doJSON(t, ts, http.MethodDelete, "/v1/cache", "", &e); status != http.StatusBadRequest {
		t.Fatalf("missing key status = %d, want 400", status)
	}
	if status := doJSON(t, ts, http.MethodDelete, "/v1/cache?key=nope", "", &e); status != http.StatusNotFound {
		t.Fatalf("unknown key status = %d, want 404", status)
	}

	// Invalidate the result entry by its fingerprint: the graph stays cached,
	// so the rerun re-executes (result miss) on the cached graph (graph hit).
	// Fingerprints contain '|' and '=', so the key must be query-escaped.
	var inv serve.CacheInvalidateResponse
	if status := doJSON(t, ts, http.MethodDelete, "/v1/cache?key="+url.QueryEscape(run.Key), "", &inv); status != http.StatusOK {
		t.Fatalf("invalidate result status = %d", status)
	}
	if !inv.ResultRemoved || inv.GraphRemoved {
		t.Fatalf("invalidate result = %+v", inv)
	}
	var rerun serve.RunResponse
	if status := postRun(t, ts, `{"source":"path:60","transforms":["sym"],"algorithm":"cc"}`, &rerun); status != http.StatusOK {
		t.Fatalf("rerun status = %d", status)
	}
	if rerun.ResultCache != "miss" || rerun.Cache != "hit" {
		t.Fatalf("rerun after result invalidation = %q/%q, want miss over cached graph", rerun.ResultCache, rerun.Cache)
	}

	// Invalidate the graph entry by its canonical spec: the next run rebuilds.
	if status := doJSON(t, ts, http.MethodDelete, "/v1/cache?key="+url.QueryEscape(run.Spec), "", &inv); status != http.StatusOK {
		t.Fatalf("invalidate graph status = %d", status)
	}
	if !inv.GraphRemoved || inv.ResultRemoved {
		t.Fatalf("invalidate graph = %+v", inv)
	}
	var rebuilt serve.RunResponse
	if status := postRun(t, ts, `{"source":"path:60","transforms":["sym"],"algorithm":"mis","seed":9}`, &rebuilt); status != http.StatusOK {
		t.Fatalf("rebuild run status = %d", status)
	}
	if rebuilt.Cache != "miss" {
		t.Fatalf("run after graph invalidation cache = %q, want miss", rebuilt.Cache)
	}
}

// TestConcurrentUpdatesAndRuns hammers one stored graph with concurrent edge
// batches and runs; every request must succeed and every run must observe a
// complete snapshot (race-checked under -race).
func TestConcurrentUpdatesAndRuns(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 8})
	createGraph(t, ts, "g", `{"source":"path:200","transforms":["symmetrize"]}`)

	const writers, readers, rounds = 3, 3, 6
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				body := fmt.Sprintf(`{"edges":[[%d,%d]]}`, (w*rounds+r)%200, (w*rounds+r+100)%200)
				var batch serve.EdgeBatchResponse
				if status := doJSON(t, ts, http.MethodPost, "/v1/graphs/g/edges", body, &batch); status != http.StatusOK {
					t.Errorf("writer %d round %d: status %d", w, r, status)
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var run serve.RunResponse
				body := fmt.Sprintf(`{"graph":"g","algorithm":"incrcc","seed":%d}`, rd*rounds+r)
				if status := postRun(t, ts, body, &run); status != http.StatusOK {
					t.Errorf("reader %d round %d: status %d", rd, r, status)
					return
				}
				if run.Graph.N != 200 || run.Result.Summary == "" {
					t.Errorf("reader %d round %d: incomplete snapshot %+v", rd, r, run)
					return
				}
			}
		}(rd)
	}
	wg.Wait()

	// The store settled at a consistent version: one bump per edge-adding
	// batch, every vertex still present.
	var list serve.GraphListResponse
	doJSON(t, ts, http.MethodGet, "/v1/graphs", "", &list)
	if len(list.Graphs) != 1 || list.Graphs[0].N != 200 || list.Graphs[0].Version < 2 {
		t.Fatalf("final store state = %+v", list.Graphs)
	}
}
