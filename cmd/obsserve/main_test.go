package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	dq "repro"
)

// newTestDeque builds a traced deque and runs a little traffic through it
// so every endpoint has something to show.
func newTestDeque(t *testing.T) *dq.Deque[uint32] {
	t.Helper()
	d, err := dq.NewChecked[uint32](
		dq.WithMaxThreads(2),
		dq.WithTracing(1),
		dq.WithLatencySample(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	h := d.Register()
	for i := uint32(0); i < 200; i++ {
		if err := h.PushLeft(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, ok := h.PopRight(); !ok {
			t.Fatal("unexpected empty pop")
		}
	}
	return d
}

func get(t *testing.T, srv *httptest.Server, path string) (string, *http.Response) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return string(body), resp
}

func TestMetricsEndpoint(t *testing.T) {
	d := newTestDeque(t)
	srv := httptest.NewServer(testMux(d))
	defer srv.Close()

	body, resp := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "deque_ops_total") {
		t.Fatalf("/metrics missing deque_ops_total:\n%.500s", body)
	}
	if dq.MetricsEnabled {
		if !strings.Contains(body, "deque_op_latency") {
			t.Fatalf("/metrics missing latency series despite WithLatencySample(1):\n%.500s", body)
		}
		if !strings.Contains(body, `class="push_left"`) {
			t.Fatalf("/metrics missing push_left latency class:\n%.500s", body)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	d := newTestDeque(t)
	srv := httptest.NewServer(testMux(d))
	defer srv.Close()

	body, resp := get(t, srv, "/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace status = %d", resp.StatusCode)
	}
	var out struct {
		Total   uint64           `json:"total_sampled"`
		Records []dq.TraceRecord `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if out.Total == 0 || len(out.Records) == 0 {
		t.Fatalf("/trace empty with WithTracing(1): total=%d records=%d", out.Total, len(out.Records))
	}
}

func TestFlightRecorderEndpoint(t *testing.T) {
	d := newTestDeque(t)
	srv := httptest.NewServer(testMux(d))
	defer srv.Close()

	body, resp := get(t, srv, "/debug/flightrecorder")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flightrecorder status = %d", resp.StatusCode)
	}
	var out struct {
		Total   uint64            `json:"total"`
		Records []dq.FlightRecord `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("/debug/flightrecorder not JSON: %v", err)
	}
	// An uncontended single-handle workload records no distress; the
	// endpoint must still answer with a well-formed empty dump.
	if uint64(len(out.Records)) > out.Total {
		t.Fatalf("retained %d records but total is %d", len(out.Records), out.Total)
	}
}

func TestExpvarEndpoint(t *testing.T) {
	d := newTestDeque(t)
	// Distinct name: expvar registration is global and permanent across
	// the test binary.
	if err := d.PublishExpvar("deque_handler_test"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(testMux(d))
	defer srv.Close()

	body, resp := get(t, srv, "/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["deque_handler_test"]; !ok {
		t.Fatal("/debug/vars missing published deque variable")
	}
}

func TestPprofEndpoint(t *testing.T) {
	d := newTestDeque(t)
	srv := httptest.NewServer(testMux(d))
	defer srv.Close()

	body, resp := get(t, srv, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index missing profile listing:\n%.300s", body)
	}
}

// TestFinalSnapshot runs the process lifecycle on a cancelled context:
// bind, drain at once, and the final snapshot on stderr.
func TestFinalSnapshot(t *testing.T) {
	d := newTestDeque(t)
	p, _ := newProcess(d, "127.0.0.1:0", net.Addr.String)
	var stderr strings.Builder
	p.Stdout, p.Stderr = io.Discard, &stderr
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if code := p.Run(ctx); code != 0 {
		t.Fatalf("exit code %d:\n%s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "obsserve: final metrics snapshot\n") || !strings.Contains(out, "deque_ops_total") {
		t.Fatalf("final snapshot missing metrics:\n%.300s", out)
	}
	if dq.MetricsEnabled && !strings.Contains(out, "deque_op_latency") {
		t.Fatalf("final snapshot missing latency series:\n%.300s", out)
	}
}

// testMux is the process's HTTP surface without a listener.
func testMux(d *dq.Deque[uint32]) http.Handler {
	_, mux := newProcess(d, "", nil)
	return mux
}
