package front

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"rtsm/internal/churn"
	"rtsm/internal/core"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/stream"
	"rtsm/internal/workload"
)

// admitReq is the test wire format: the churn catalogue index.
type admitReq struct {
	Index int `json:"index"`
}

// churnDecoder decodes {"index": n} bodies into deterministic churn
// arrivals — the same decoder shape cmd/serve and the chaos harness use.
func churnDecoder(co churn.Options, endpointRegions int) Decoder {
	return func(r *http.Request) (*model.Application, *model.Library, error) {
		var req admitReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, nil, fmt.Errorf("bad body: %w", err)
		}
		if req.Index < 0 {
			return nil, nil, fmt.Errorf("negative index %d", req.Index)
		}
		app, lib := co.Arrival(req.Index, endpointRegions)
		return app, lib, nil
	}
}

func postAdmit(t *testing.T, addr string, idx int) (int, AdmitResponse) {
	t.Helper()
	body, _ := json.Marshal(admitReq{Index: idx})
	resp, err := http.Post("http://"+addr+"/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /admit: %v", err)
	}
	defer resp.Body.Close()
	var ar AdmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatalf("decode /admit response: %v", err)
	}
	return resp.StatusCode, ar
}

// drainResults keeps the server's shared results channel flowing; the
// front door's per-request notify channels are independent of it.
func drainResults(srv *stream.Server) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range srv.Results() {
		}
	}()
	return done
}

// TestFrontEndToEnd drives the full HTTP surface over a real mesh:
// admissions return 200, the health endpoints answer, and the drain
// sequence flips readiness before refusing admissions — with the stream
// ledger exact at the end.
func TestFrontEndToEnd(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 99, 0)
	m := manager.New(plat, core.Config{})
	pipe := manager.NewPipeline(m, 4, 16)
	srv, err := stream.New(stream.Options{Backend: stream.NewPipelineBackend(m, pipe)})
	if err != nil {
		t.Fatal(err)
	}
	collector := drainResults(srv)

	co := churn.Options{Catalogue: 4, MaxUtil: 0.05, PeriodNs: 40_000, PrioMix: "1:1:1"}
	d, err := Listen(Options{Server: srv, Decode: churnDecoder(co, 1), RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 8; i++ {
		status, ar := postAdmit(t, d.Addr(), i)
		if status != http.StatusOK || ar.Verdict != "admitted" {
			t.Fatalf("admit %d: status %d, verdict %q (err %q)", i, status, ar.Verdict, ar.Error)
		}
	}

	for _, ep := range []string{"healthz", "readyz"} {
		resp, err := http.Get("http://" + d.Addr() + "/" + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /%s = %d, want 200", ep, resp.StatusCode)
		}
	}
	resp, err := http.Get("http://" + d.Addr() + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var met Metrics
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if met.Door.Admitted != 8 || met.Stream.Admitted != 8 {
		t.Fatalf("metricsz: door admitted %d, stream admitted %d, want 8/8", met.Door.Admitted, met.Stream.Admitted)
	}

	// Drain: readiness flips, then /admit refuses, then the listener is
	// gone — and only after that does the stream server shut down.
	addr := d.Addr()
	if err := d.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/readyz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
	rep := srv.Shutdown()
	<-collector
	if !rep.LedgerOK() {
		t.Fatalf("ledger broken after drain: %+v", rep)
	}
	if rep.Submitted != 8 || rep.Admitted != 8 {
		t.Fatalf("ledger: submitted %d admitted %d, want 8/8", rep.Submitted, rep.Admitted)
	}
}

// TestFrontDrainRefusesNewAdmits checks the draining 503 path directly:
// a door that began draining answers /admit with 503 and counts it.
func TestFrontDrainRefusesNewAdmits(t *testing.T) {
	srv := newScriptedServer(t, &scriptBackend{})
	collector := drainResults(srv)
	d, err := Listen(Options{Server: srv, Decode: rejectAllDecoder()})
	if err != nil {
		t.Fatal(err)
	}
	// Flip readiness without closing the listener yet: simulate the
	// window a load balancer sees between the flip and the close.
	d.ready.Store(false)
	status, ar := postAdmit(t, d.Addr(), 0)
	if status != http.StatusServiceUnavailable || ar.Error != "draining" {
		t.Fatalf("draining admit: status %d, error %q", status, ar.Error)
	}
	if st := d.Stats(); st.Draining != 1 || st.Busy != 1 {
		t.Fatalf("draining stats: %+v", st)
	}
	if err := d.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	<-collector
}

// scriptBackend is a deterministic stream.Backend: the first
// rejectFirst submissions are rejected retryably (capacity), the rest
// admitted; every outcome is delayed by delay. It reports full
// utilization unless idle, which lets a DLQ behind the server retry.
type scriptBackend struct {
	mu          sync.Mutex
	rejectFirst int
	delay       time.Duration
	idle        bool
	subs        int
}

func (b *scriptBackend) submissions() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.subs
}

func (b *scriptBackend) outcome(app *model.Application) func() manager.Outcome {
	b.mu.Lock()
	b.subs++
	n := b.subs
	b.mu.Unlock()
	return func() manager.Outcome {
		if b.delay > 0 {
			time.Sleep(b.delay)
		}
		if n <= b.rejectFirst {
			return manager.Outcome{App: app.Name, Err: &manager.RejectionError{
				App: app.Name, Reason: "no feasible mapping at current occupancy", Retryable: true,
			}}
		}
		return manager.Outcome{App: app.Name, Admitted: true}
	}
}

func (b *scriptBackend) Submit(app *model.Application, _ *model.Library) (func() manager.Outcome, error) {
	return b.outcome(app), nil
}

func (b *scriptBackend) TrySubmit(app *model.Application, _ *model.Library) (func() manager.Outcome, bool) {
	return b.outcome(app), true
}

func (b *scriptBackend) Utilization() float64 {
	if b.idle {
		return 0
	}
	return 1.0
}
func (b *scriptBackend) Stop(string) error { return nil }
func (b *scriptBackend) Close()            {}

// newScriptedServer builds a stream server without a DLQ, so a
// retryable rejection surfaces at once as the request's final result.
func newScriptedServer(t testing.TB, b stream.Backend) *stream.Server {
	t.Helper()
	srv, err := stream.New(stream.Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// newDLQServer builds a stream server whose DLQ retries a capacity
// rejection every millisecond, up to three submissions in all.
func newDLQServer(t testing.TB, b stream.Backend) *stream.Server {
	t.Helper()
	srv, err := stream.New(stream.Options{Backend: b, DLQ: 4, DLQRetries: 3, DLQEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// rejectAllDecoder builds a minimal Critical arrival for script tests.
func rejectAllDecoder() Decoder {
	var n int
	var mu sync.Mutex
	return func(*http.Request) (*model.Application, *model.Library, error) {
		mu.Lock()
		n++
		i := n
		mu.Unlock()
		app, lib := workload.Synthetic(workload.SynthOptions{Shape: workload.ShapeChain, Processes: 3, MaxUtil: 0.1, PeriodNs: 40_000})
		app.Name = fmt.Sprintf("scripted-%d", i)
		app.QoS.Priority = model.Critical
		return app, lib, nil
	}
}

// TestFrontCapacityRejectionIsFinal pins one submission per request:
// the backend rejects the first two submissions for capacity, and the
// door answers the first with 503 and a Retry-After hint instead of
// re-submitting behind the server. Retrying a capacity rejection is the
// stream server's DLQ's job, not the door's.
func TestFrontCapacityRejectionIsFinal(t *testing.T) {
	b := &scriptBackend{rejectFirst: 2}
	srv := newScriptedServer(t, b)
	collector := drainResults(srv)
	d, err := Listen(Options{Server: srv, Decode: rejectAllDecoder()})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(admitReq{Index: 0})
	resp, err := http.Post("http://"+d.Addr()+"/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %s)", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After hint")
	}
	var ar AdmitResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Verdict != "rejected" {
		t.Fatalf("verdict %q, want rejected", ar.Verdict)
	}
	if st := d.Stats(); st.Busy != 1 || st.Admitted != 0 || st.Retries != 0 {
		t.Fatalf("door stats: %+v", st)
	}
	if err := d.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	rep := srv.Shutdown()
	<-collector
	if !rep.LedgerOK() || rep.Submitted != 1 || rep.Rejected != 1 {
		t.Fatalf("ledger: %+v, want one submission, rejected", rep)
	}
}

// TestFrontRetryRecovers pins the retry path behind the door: two
// capacity rejections, then an admission. The door submits once; the
// server's DLQ re-submits, and the client gets 200 marked recovered.
func TestFrontRetryRecovers(t *testing.T) {
	b := &scriptBackend{rejectFirst: 2, idle: true}
	srv := newDLQServer(t, b)
	collector := drainResults(srv)
	d, err := Listen(Options{Server: srv, Decode: rejectAllDecoder()})
	if err != nil {
		t.Fatal(err)
	}
	status, ar := postAdmit(t, d.Addr(), 0)
	if status != http.StatusOK || ar.Verdict != "admitted" || !ar.Recovered {
		t.Fatalf("retried admit: status %d, verdict %q, recovered %v (err %q)", status, ar.Verdict, ar.Recovered, ar.Error)
	}
	if n := b.submissions(); n != 3 {
		t.Fatalf("backend saw %d submissions, want 3 (original + 2 DLQ retries)", n)
	}
	if st := d.Stats(); st.Retries != 0 || st.Admitted != 1 {
		t.Fatalf("stats after retry: %+v", st)
	}
	if err := d.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	rep := srv.Shutdown()
	<-collector
	// One arrival, one verdict: the DLQ's retries are not new arrivals.
	if !rep.LedgerOK() || rep.Submitted != 1 || rep.Admitted != 1 || rep.Recovered != 1 {
		t.Fatalf("ledger after retries: %+v", rep)
	}
}

// TestFrontRetryBudgetExhausted pins the other side: a backend that
// stays out of capacity longer than the DLQ's budget yields 503 with a
// Retry-After hint after exactly DLQRetries submissions.
func TestFrontRetryBudgetExhausted(t *testing.T) {
	b := &scriptBackend{rejectFirst: 1 << 30, idle: true}
	srv := newDLQServer(t, b)
	collector := drainResults(srv)
	d, err := Listen(Options{Server: srv, Decode: rejectAllDecoder()})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(admitReq{Index: 0})
	resp, err := http.Post("http://"+d.Addr()+"/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %s)", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After hint")
	}
	var ar AdmitResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Verdict != "expired" {
		t.Fatalf("exhausted budget: verdict %q, want expired", ar.Verdict)
	}
	if n := b.submissions(); n != 3 {
		t.Fatalf("backend saw %d submissions, want 3 (the DLQ budget)", n)
	}
	if st := d.Stats(); st.Busy != 1 || st.Retries != 0 {
		t.Fatalf("door stats: %+v", st)
	}
	if err := d.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	rep := srv.Shutdown()
	<-collector
	if !rep.LedgerOK() || rep.Submitted != 1 || rep.Expired != 1 {
		t.Fatalf("ledger after exhausted budget: %+v", rep)
	}
}

// TestFrontDeadlinePropagates pins the 504 path: a backend slower than
// the request timeout leaves the client with 504, while the arrival
// still runs to its verdict and the ledger stays exact.
func TestFrontDeadlinePropagates(t *testing.T) {
	b := &scriptBackend{delay: 300 * time.Millisecond}
	srv := newScriptedServer(t, b)
	collector := drainResults(srv)
	d, err := Listen(Options{Server: srv, Decode: rejectAllDecoder(), RequestTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	status, ar := postAdmit(t, d.Addr(), 0)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("slow backend: status %d (err %q), want 504", status, ar.Error)
	}
	if st := d.Stats(); st.Timeout != 1 {
		t.Fatalf("timeout stats: %+v", st)
	}
	if err := d.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	rep := srv.Shutdown()
	<-collector
	// The abandoned arrival still got its single outcome.
	if !rep.LedgerOK() || rep.Submitted != 1 || rep.Admitted != 1 {
		t.Fatalf("ledger after abandoned wait: %+v", rep)
	}
}

// TestFrontBadRequest pins the 400 path: decoder errors never reach the
// pipeline, and neither does a body over the door's size cap — the
// decoder is cut off mid-read and the request answers 413.
func TestFrontBadRequest(t *testing.T) {
	srv := newScriptedServer(t, &scriptBackend{})
	collector := drainResults(srv)
	co := churn.Options{Catalogue: 4, MaxUtil: 0.05, PeriodNs: 40_000}
	d, err := Listen(Options{Server: srv, Decode: churnDecoder(co, 1)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+d.Addr()+"/admit", "application/json", bytes.NewReader([]byte("not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", resp.StatusCode)
	}
	status, _ := postAdmit(t, d.Addr(), -1)
	if status != http.StatusBadRequest {
		t.Fatalf("negative index: status %d, want 400", status)
	}
	// Well-formed JSON, so only the cap can refuse it.
	huge := `{"index":0,"pad":"` + strings.Repeat("a", 128<<10) + `"}`
	resp, err = http.Post("http://"+d.Addr()+"/admit", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("128 KiB body: status %d, want 413", resp.StatusCode)
	}
	if got := d.Stats().BadRequest; got != 3 {
		t.Fatalf("BadRequest = %d, want 3", got)
	}
	if err := d.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	rep := srv.Shutdown()
	<-collector
	if rep.Submitted != 0 {
		t.Fatalf("refused requests reached the pipeline: %+v", rep)
	}
}

// TestFrontSlowHeadersDisconnected pins the header deadline: a client
// that opens a connection and never finishes its request headers is
// disconnected instead of holding the connection forever.
func TestFrontSlowHeadersDisconnected(t *testing.T) {
	srv := newScriptedServer(t, &scriptBackend{})
	collector := drainResults(srv)
	d, err := Listen(Options{Server: srv, Decode: rejectAllDecoder()})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /admit HTTP/1.1\r\nHost: door\r\n"); err != nil {
		t.Fatal(err)
	}
	// The client's own patience is well past the server's; what must end
	// the read is the server hanging up.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept a connection with unfinished headers open for 10s")
	}
	if err := d.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	<-collector
}

// FuzzAdmitDecode throws arbitrary bodies at POST /admit with the
// service's own decoder (churn.Stack.Decode) behind the door. Whatever
// arrives from the network, the door must not panic, must not answer
// 5xx — a malformed, negative or oversized request is the client's
// fault — and a 200 must name a catalogue arrival with a non-negative
// index. The backend admits everything, so capacity never answers 503.
func FuzzAdmitDecode(f *testing.F) {
	for _, seed := range []string{
		`{"index":0}`, `{"index":47}`, `{"index":-1}`, `not json`, ``,
		`{"index":1} trailing`, `{"index":"7"}`, `{"index":1e99}`,
		`{"index":9223372036854775807}`, `{"Index":3,"index":-3}`, `[0]`, `null`,
	} {
		f.Add([]byte(seed))
	}
	st, err := churn.NewStack(churn.Options{Catalogue: 4, MaxUtil: 0.05, PeriodNs: 40_000, RegionSize: 4})
	if err != nil {
		f.Fatal(err)
	}
	srv := newScriptedServer(f, &scriptBackend{})
	collector := drainResults(srv)
	d, err := Listen(Options{Server: srv, Decode: st.Decode})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		d.Drain(context.Background())
		srv.Shutdown()
		<-collector
		st.Close()
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		d.http.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admit", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var ar AdmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
			t.Fatalf("200 with an undecodable response %q: %v", rec.Body, err)
		}
		var idx int
		if _, err := fmt.Sscanf(ar.App, "app-%d", &idx); err != nil || idx < 0 {
			t.Fatalf("body %q admitted as %q, not a non-negative catalogue index", body, ar.App)
		}
	})
}
