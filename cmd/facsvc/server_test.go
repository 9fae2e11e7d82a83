package main

// httptest coverage for the service's HTTP contract: the typed-error to
// status-code mapping (429/Retry-After, 504, 400, 422), both payload
// encodings, the cache header, /metrics, and graceful drain.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/factor"
	"repro/internal/obs"
)

// newTestService builds an engine + server + httptest front end; the caller
// gets the base URL and a cleanup-registered engine.
func newTestService(t *testing.T, cfg factor.EngineConfig) (string, *factor.Engine) {
	t.Helper()
	cfg.MetricsNamespace = "facsvc_engine" // mirror run()
	eng := factor.NewEngineWithConfig(cfg)
	ts := httptest.NewServer(newServer(eng, cfg).handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts.URL, eng
}

// jsonLU posts one JSON LU request and returns the response.
func jsonLU(t *testing.T, url string, body jsonRequest) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/lu", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// identity returns the n x n identity as a column-major flat slice.
func identity(n int) []float64 {
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		d[i*n+i] = 1
	}
	return d
}

// randomData returns a deterministic well-conditioned column-major matrix.
func randomData(r, c int, seed int64) []float64 {
	m := factor.Random(r, c, seed)
	out := make([]float64, 0, r*c)
	for j := 0; j < c; j++ {
		out = append(out, m.Data[j*m.Stride:j*m.Stride+r]...)
	}
	return out
}

// checkLUWire checks that the factors and permutation of an n x n LU
// response reconstruct the request's column-major data: A[perm[i], :] =
// (L*U)[i, :] with ||PA - LU||_F / (||A||_F * n * eps) at most 10, the
// benchmark's backward-error bound, and that perm is not the identity.
func checkLUWire(t *testing.T, n int, data, factors []float64, perm []int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("permutation has %d entries, want %d", len(perm), n)
	}
	moved := false
	for i, p := range perm {
		moved = moved || p != i
	}
	if !moved {
		t.Fatal("permutation is the identity")
	}
	a := factor.FromColMajor(n, n, n, data)
	lu := factor.FromColMajor(n, n, n, factors)
	diff, norm := 0.0, 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k <= min(i, j); k++ {
				l := 1.0 // L's unit diagonal
				if k < i {
					l = lu.At(i, k)
				}
				s += l * lu.At(k, j)
			}
			v := a.At(perm[i], j)
			diff += (v - s) * (v - s)
			norm += v * v
		}
	}
	if back := math.Sqrt(diff) / (math.Sqrt(norm) * float64(n) * 0x1p-52); !(back <= 10) {
		t.Fatalf("A[perm, :] - L*U scaled backward error %.3g n*eps, want <= 10", back)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	url, _ := newTestService(t, factor.EngineConfig{Workers: 2})
	data := randomData(8, 8, 1)
	resp := jsonLU(t, url, jsonRequest{Rows: 8, Cols: 8, Data: data, Options: jsonOptions{BlockSize: 4}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out jsonLUResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Rows != 8 || out.Cols != 8 || len(out.Factors) != 64 || len(out.Perm) != 8 {
		t.Fatalf("malformed response: rows=%d cols=%d factors=%d perm=%d", out.Rows, out.Cols, len(out.Factors), len(out.Perm))
	}
	checkLUWire(t, 8, data, out.Factors, out.Perm)

	// QR over the same service.
	qb, _ := json.Marshal(jsonRequest{Rows: 12, Cols: 8, Data: randomData(12, 8, 2), Options: jsonOptions{BlockSize: 4}})
	qresp, err := http.Post(url+"/v1/qr", "application/json", bytes.NewReader(qb))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(qresp.Body)
		t.Fatalf("qr status %d: %s", qresp.StatusCode, b)
	}
	var qout jsonQRResponse
	if err := json.NewDecoder(qresp.Body).Decode(&qout); err != nil {
		t.Fatal(err)
	}
	if qout.Rows != 8 || qout.Cols != 8 || len(qout.R) != 64 {
		t.Fatalf("malformed QR response: rows=%d cols=%d len=%d", qout.Rows, qout.Cols, len(qout.R))
	}
}

// binaryBody encodes vals as little-endian float64 bytes.
func binaryBody(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	url, _ := newTestService(t, factor.EngineConfig{Workers: 2})
	data := randomData(8, 8, 3)
	resp, err := http.Post(url+"/v1/lu?rows=8&cols=8&block=4", "application/octet-stream", bytes.NewReader(binaryBody(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
		t.Fatalf("Content-Type = %q", got)
	}
	if resp.Header.Get("X-Permutation") == "" {
		t.Fatal("binary LU response missing X-Permutation")
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 8*8*8 {
		t.Fatalf("binary response is %d bytes, want %d", len(body), 8*8*8)
	}
	var perm []int
	for _, f := range strings.Fields(resp.Header.Get("X-Permutation")) {
		p, err := strconv.Atoi(f)
		if err != nil {
			t.Fatalf("X-Permutation entry %q: %v", f, err)
		}
		perm = append(perm, p)
	}
	factors := make([]float64, 8*8)
	for i := range factors {
		factors[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	checkLUWire(t, 8, data, factors, perm)

	// The binary factors must match the JSON encoding of the same request.
	jresp := jsonLU(t, url, jsonRequest{Rows: 8, Cols: 8, Data: data, Options: jsonOptions{BlockSize: 4}})
	defer jresp.Body.Close()
	var jout jsonLUResponse
	if err := json.NewDecoder(jresp.Body).Decode(&jout); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, binaryBody(jout.Factors)) {
		t.Fatal("binary and JSON encodings returned different factors")
	}
}

func TestBadRequests(t *testing.T) {
	url, _ := newTestService(t, factor.EngineConfig{Workers: 2})
	post := func(path, ct string, body []byte) int {
		resp, err := http.Post(url+path, ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Malformed JSON.
	if got := post("/v1/lu", "application/json", []byte("{not json")); got != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", got)
	}
	// Shape/data mismatch.
	b, _ := json.Marshal(jsonRequest{Rows: 4, Cols: 4, Data: []float64{1, 2}})
	if got := post("/v1/lu", "application/json", b); got != http.StatusBadRequest {
		t.Fatalf("short data: status %d, want 400", got)
	}
	// Unknown field.
	if got := post("/v1/lu", "application/json", []byte(`{"rows":1,"cols":1,"data":[1],"bogus":true}`)); got != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", got)
	}
	// Unsupported content type.
	if got := post("/v1/lu", "text/csv", []byte("1,2")); got != http.StatusBadRequest {
		t.Fatalf("bad content type: status %d, want 400", got)
	}
	// Binary without shape.
	if got := post("/v1/lu", "application/octet-stream", binaryBody([]float64{1})); got != http.StatusBadRequest {
		t.Fatalf("binary without shape: status %d, want 400", got)
	}
	// NaN entry: decodes fine, engine rejects with ErrNonFinite -> 400.
	nan := identity(4)
	nan[5] = math.NaN()
	resp, err := http.Post(url+"/v1/lu?rows=4&cols=4", "application/octet-stream", bytes.NewReader(binaryBody(nan)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN input: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(msg), "finite") {
		t.Fatalf("NaN input error does not mention finiteness: %s", msg)
	}
}

func TestSingularIs422(t *testing.T) {
	url, _ := newTestService(t, factor.EngineConfig{Workers: 2})
	resp := jsonLU(t, url, jsonRequest{Rows: 8, Cols: 8, Data: make([]float64, 64)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("singular input: status %d, want 422", resp.StatusCode)
	}
}

// TestOverloadedIs429 saturates a MaxInFlight=1 engine with a request
// blocked inside the pool and checks the next request is rejected with 429
// and a Retry-After hint, per the ISSUE acceptance criterion: under
// saturating load the server says 429, it does not hang or 500.
func TestOverloadedIs429(t *testing.T) {
	gate := make(chan struct{})
	url, eng := newTestService(t, factor.EngineConfig{
		Workers: 2, MaxInFlight: 1,
		Interceptor: func(info factor.TaskInfo) error {
			<-gate
			return nil
		},
	})
	blocked := make(chan int, 1)
	go func() {
		resp := jsonLU(t, url, jsonRequest{Rows: 8, Cols: 8, Data: randomData(8, 8, 4)})
		resp.Body.Close()
		blocked <- resp.StatusCode
	}()
	for i := 0; eng.Stats().InFlight == 0; i++ {
		if i > 2000 {
			close(gate)
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp := jsonLU(t, url, jsonRequest{Rows: 8, Cols: 8, Data: randomData(8, 8, 5)})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		close(gate)
		t.Fatalf("saturated engine: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		close(gate)
		t.Fatal("429 response missing Retry-After")
	}
	close(gate)
	if got := <-blocked; got != http.StatusOK {
		t.Fatalf("blocked request finished with %d, want 200", got)
	}
}

// TestDeadlineIs504 checks a request whose own deadline expires
// mid-factorization maps to 504 Gateway Timeout.
func TestDeadlineIs504(t *testing.T) {
	url, _ := newTestService(t, factor.EngineConfig{
		Workers: 2,
		// Cancellation never preempts a running kernel, so the stall must be
		// short: each task sleeps past the request deadline, the queued rest
		// drain unrun, and the handler reports 504 once the running ones end.
		Interceptor: func(info factor.TaskInfo) error {
			time.Sleep(200 * time.Millisecond)
			return nil
		},
	})
	resp := jsonLU(t, url, jsonRequest{Rows: 8, Cols: 8, Data: randomData(8, 8, 6), TimeoutMS: 50})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
	}
}

// TestCacheHitIdenticalBytes posts the same binary request twice with
// cache=1 and checks the second is a hit with a byte-identical body and no
// new pool work.
func TestCacheHitIdenticalBytes(t *testing.T) {
	url, eng := newTestService(t, factor.EngineConfig{Workers: 2, CacheEntries: 8})
	data := binaryBody(randomData(16, 16, 7))
	post := func() (*http.Response, []byte) {
		resp, err := http.Post(url+"/v1/lu?rows=16&cols=16&block=4&cache=1", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	r1, b1 := post()
	if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d X-Cache %q, want 200 miss", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	tasks := eng.Stats().PoolTasks
	r2, b2 := post()
	if r2.StatusCode != http.StatusOK || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat request: status %d X-Cache %q, want 200 hit", r2.StatusCode, r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cache hit returned different bytes than the miss")
	}
	if r1.Header.Get("X-Permutation") != r2.Header.Get("X-Permutation") {
		t.Fatal("cache hit returned a different permutation")
	}
	if got := eng.Stats().PoolTasks; got != tasks {
		t.Fatalf("cache hit ran %d new pool tasks", got-tasks)
	}
	if s := eng.Stats(); s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", s.CacheHits, s.CacheMisses)
	}
}

// scrape fetches /metrics and parses it with the strict exposition parser;
// any format violation fails the test.
func scrape(t *testing.T, url string) []obs.ParsedFamily {
	t.Helper()
	m, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	if got := m.Header.Get("Content-Type"); got != obs.ExpositionContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", got, obs.ExpositionContentType)
	}
	body, err := io.ReadAll(m.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, body)
	}
	return fams
}

// sample finds one series in a scrape by name and exact label pairs.
func sample(fams []obs.ParsedFamily, name string, labels ...string) (float64, bool) {
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name != name {
				continue
			}
			ok := true
			for i := 0; i+1 < len(labels); i += 2 {
				if s.Label(labels[i]) != labels[i+1] {
					ok = false
					break
				}
			}
			if ok && len(s.LabelNames)*2 == len(labels) {
				return s.Value, true
			}
		}
	}
	return 0, false
}

func TestMetricsEndpoint(t *testing.T) {
	url, _ := newTestService(t, factor.EngineConfig{Workers: 2})
	resp := jsonLU(t, url, jsonRequest{Rows: 8, Cols: 8, Data: randomData(8, 8, 8)})
	resp.Body.Close()
	fams := scrape(t, url)

	// The historical hand-rolled keys survive the registry rebuild.
	for name, want := range map[string]float64{
		"facsvc_engine_shed_total":       0,
		"facsvc_engine_cache_hits_total": 0,
		"facsvc_http_in_flight":          0,
	} {
		got, ok := sample(fams, name)
		if !ok {
			t.Fatalf("metrics missing %s", name)
		}
		if got != want {
			t.Fatalf("%s = %g, want %g", name, got, want)
		}
	}
	if got, ok := sample(fams, "facsvc_engine_pool_tasks_total"); !ok || got < 1 {
		t.Fatalf("facsvc_engine_pool_tasks_total = %g ok=%v, want >= 1", got, ok)
	}
	if got, ok := sample(fams, "facsvc_http_requests_total", "op", "lu", "status", "200"); !ok || got != 1 {
		t.Fatalf(`facsvc_http_requests_total{op="lu",status="200"} = %g ok=%v, want 1`, got, ok)
	}
	if got, ok := sample(fams, "facsvc_http_requests_started_total", "op", "lu"); !ok || got != 1 {
		t.Fatalf(`facsvc_http_requests_started_total{op="lu"} = %g ok=%v, want 1`, got, ok)
	}
	if got, ok := sample(fams, "facsvc_http_request_seconds_count", "op", "lu"); !ok || got != 1 {
		t.Fatalf(`facsvc_http_request_seconds_count{op="lu"} = %g ok=%v, want 1`, got, ok)
	}
	if got, ok := sample(fams, "facsvc_engine_request_seconds_count", "op", "lu"); !ok || got != 1 {
		t.Fatalf(`facsvc_engine_request_seconds_count{op="lu"} = %g ok=%v, want 1`, got, ok)
	}
}

// TestMetricsConsistentUnderBurst scrapes /metrics continuously while cached
// requests land and checks the invariant the registry rebuild exists for: a
// mid-burst scrape never reports more engine cache hits than HTTP requests
// started, because started counts before the engine call and the engine
// registry is gathered first.
func TestMetricsConsistentUnderBurst(t *testing.T) {
	url, _ := newTestService(t, factor.EngineConfig{Workers: 2, CacheEntries: 8})
	data := binaryBody(randomData(12, 12, 11))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(url+"/v1/lu?rows=12&cols=12&block=4&cache=1", "application/octet-stream", bytes.NewReader(data))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	defer func() { close(stop); <-done }()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		fams := scrape(t, url)
		hits, _ := sample(fams, "facsvc_engine_cache_hits_total")
		started, ok := sample(fams, "facsvc_http_requests_started_total", "op", "lu")
		if hits > 0 && !ok {
			t.Fatalf("scrape has %g cache hits but no started counter", hits)
		}
		if hits > started {
			t.Fatalf("inconsistent scrape: %g cache hits > %g started requests", hits, started)
		}
	}
}

// TestGracefulDrain runs the real run() loop, blocks a request inside the
// engine, delivers the shutdown signal (ctx cancel), and checks the
// in-flight request still completes with 200 before run returns cleanly.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	cfg := serviceConfig{
		addr: "127.0.0.1:0",
		engine: factor.EngineConfig{
			Workers: 2,
			Interceptor: func(info factor.TaskInfo) error {
				<-gate
				return nil
			},
		},
		drainTimeout: 10 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	runDone := make(chan error, 1)
	go func() { runDone <- run(ctx, cfg, ready) }()
	addr := <-ready
	url := fmt.Sprintf("http://%s", addr)

	reqDone := make(chan int, 1)
	go func() {
		resp := jsonLU(t, url, jsonRequest{Rows: 8, Cols: 8, Data: randomData(8, 8, 9)})
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	// Wait until the request is blocked inside the engine, then "SIGTERM".
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), "facsvc_engine_in_flight 1") {
			break
		}
		if time.Now().After(deadline) {
			close(gate)
			t.Fatal("request never reached the engine")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	// The server must keep the in-flight request alive across shutdown.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	select {
	case status := <-reqDone:
		if status != http.StatusOK {
			t.Fatalf("in-flight request finished with %d across drain, want 200", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed during drain")
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("run returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run never returned after drain")
	}
}
