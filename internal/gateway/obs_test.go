package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"silica/internal/obs"
)

// TestTraceEndToEnd drives one traced Put plus the flush that makes it
// durable under a single trace and checks every pipeline span shows up
// with a real duration in /v1/traces: queue wait, staging reserve,
// encrypt, stage, then encode, burn, verify, publish.
func TestTraceEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.TraceSample = 1
	cfg.DisableRepair = true
	g := newTestGateway(t, cfg)

	ctx, tr := g.Tracer().Start(context.Background(), "e2e")
	if tr == nil {
		t.Fatal("TraceSample=1 should sample every request")
	}
	if _, err := g.PutCtx(ctx, "acct", "traced", randBytes(7, 5000)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := g.FlushCtx(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	g.Tracer().Finish(tr)

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload TracesPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}

	var rec *obs.TraceRecord
	for i := range payload.Traces {
		if payload.Traces[i].Name == "e2e" {
			rec = &payload.Traces[i]
			break
		}
	}
	if rec == nil {
		t.Fatalf("no e2e trace in /v1/traces (got %d traces)", len(payload.Traces))
	}
	if rec.Duration <= 0 {
		t.Fatalf("trace duration = %v, want > 0", rec.Duration)
	}
	spans := map[string]int64{}
	for _, s := range rec.Spans {
		spans[s.Name] += int64(s.Dur)
	}
	for _, name := range []string{"queue", "reserve", "encrypt", "stage", "encode", "burn", "verify", "publish"} {
		d, ok := spans[name]
		if !ok {
			t.Errorf("trace missing span %q (have %v)", name, rec.Spans)
			continue
		}
		if d <= 0 {
			t.Errorf("span %q duration = %d, want > 0", name, d)
		}
	}
}

// TestMetricsEndpoint drives traffic through a gateway with repair
// enabled and checks /metrics serves valid Prometheus text covering
// every subsystem: gateway, staging, codec, flush phases, repair.
func TestMetricsEndpoint(t *testing.T) {
	g := newTestGateway(t, testConfig())
	data := randBytes(9, 4000)
	if _, err := g.Put("acct", "m1", data); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := g.Get("acct", "m1"); err != nil {
		t.Fatalf("get: %v", err)
	}
	if err := g.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}

	atLeast := func(name string, labels map[string]string, min float64) {
		t.Helper()
		s, ok := obs.FindSample(samples, name, labels)
		if !ok {
			t.Errorf("missing sample %s%v", name, labels)
			return
		}
		if s.Value < min {
			t.Errorf("%s%v = %v, want >= %v", name, labels, s.Value, min)
		}
	}
	// Gateway.
	atLeast("silica_gateway_admitted_total", map[string]string{"class": "put"}, 1)
	atLeast("silica_gateway_admitted_total", map[string]string{"class": "get"}, 1)
	atLeast("silica_gateway_completed_total", map[string]string{"class": "put"}, 1)
	atLeast("silica_gateway_request_seconds_count", map[string]string{"class": "put"}, 1)
	atLeast("silica_gateway_queue_depth", map[string]string{"class": "put"}, 0)
	atLeast("silica_gateway_queue_capacity", map[string]string{"class": "get"}, 1)
	atLeast("silica_gateway_flushes_total", nil, 1)
	// Staging: the flush drained it, so used is back near zero but the
	// peak watermark remembers the staged object.
	atLeast("silica_staging_used_bytes", nil, 0)
	atLeast("silica_staging_peak_bytes", nil, float64(len(data)))
	// Codec engine: the flush ran encode jobs through the worker pool.
	atLeast("silica_codec_jobs_total", nil, 1)
	atLeast("silica_codec_workers", nil, 1)
	// Codec hot path: the flush's burn encoded sectors and its verify
	// pass decoded them, so both histograms and counters moved; the
	// throughput gauges exist (possibly zero between scrapes).
	atLeast("silica_codec_encode_seconds_count", nil, 1)
	atLeast("silica_codec_decode_seconds_count", nil, 1)
	atLeast("silica_codec_sectors_total", map[string]string{"op": "encode"}, 1)
	atLeast("silica_codec_sectors_total", map[string]string{"op": "decode"}, 1)
	atLeast("silica_codec_sectors_per_second", map[string]string{"op": "encode"}, 0)
	atLeast("silica_codec_sectors_per_second", map[string]string{"op": "decode"}, 0)
	// Flush phases.
	atLeast("silica_flush_phase_seconds_count", map[string]string{"phase": "encode"}, 1)
	atLeast("silica_flush_phase_seconds_count", map[string]string{"phase": "verify"}, 1)
	// Repair: families are registered at construction even before any
	// scrub runs, and every platter starts healthy.
	atLeast("silica_repair_scrubs_total", nil, 0)
	atLeast("silica_repair_rebuilds_total", map[string]string{"outcome": "done"}, 0)
	atLeast("silica_platter_health", map[string]string{"state": "healthy"}, 1)

	// Server-side request quantiles must be derivable from the buckets
	// (this is what silica-load prints next to client-side latency).
	if q, ok := obs.HistQuantile(samples, "silica_gateway_request_seconds",
		map[string]string{"class": "put"}, 0.99); !ok || q < 0 {
		t.Errorf("p99 from request_seconds buckets: q=%v ok=%v", q, ok)
	}
}

// TestStatsJSONShape pins the /v1/stats payload shape: the top-level
// keys and the field names inside the latency summaries and staging
// usage, so dashboards built on the old mutex recorder keep working
// against the sharded one.
func TestStatsJSONShape(t *testing.T) {
	g := newTestGateway(t, testConfig())
	if _, err := g.Put("acct", "s1", randBytes(11, 2000)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := g.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"uptime_seconds", "counters", "latencies", "staging", "service", "health", "repair"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/v1/stats missing top-level key %q", key)
		}
	}

	var lat map[string]map[string]float64
	if err := json.Unmarshal(doc["latencies"], &lat); err != nil {
		t.Fatalf("latencies: %v", err)
	}
	put, ok := lat["put"]
	if !ok {
		t.Fatalf("latencies missing class %q (have %v)", "put", lat)
	}
	for _, field := range []string{"N", "Mean", "P50", "P90", "P99", "P999", "Max"} {
		if _, ok := put[field]; !ok {
			t.Errorf("latency summary missing field %q", field)
		}
	}
	if put["N"] < 1 {
		t.Errorf("put summary N = %v, want >= 1", put["N"])
	}

	var stg map[string]any
	if err := json.Unmarshal(doc["staging"], &stg); err != nil {
		t.Fatalf("staging: %v", err)
	}
	for _, field := range []string{"Used", "Reserved", "Capacity", "Peak", "Pending"} {
		if _, ok := stg[field]; !ok {
			t.Errorf("staging usage missing field %q", field)
		}
	}
}

// TestStatsAndCountersReadObs: /v1/stats latencies and Counters() are
// views of the obs instruments behind /metrics, not a second count:
// after a mixed run and a flush, each class's latency N equals its
// completed counter, the flush N equals the flush counter, and every
// Counters field equals its per-class obs counters summed.
func TestStatsAndCountersReadObs(t *testing.T) {
	cfg := testConfig()
	cfg.DisableRepair = true
	g := newTestGateway(t, cfg)
	for i := 0; i < 12; i++ {
		name := "m" + string(rune('a'+i))
		if _, err := g.Put("acct", name, randBytes(uint64(100+i), 800)); err != nil {
			t.Fatalf("put: %v", err)
		}
		if i%3 == 0 {
			if _, err := g.Get("acct", name); err != nil {
				t.Fatalf("get: %v", err)
			}
		}
		if i%4 == 1 {
			if err := g.Delete("acct", name); err != nil {
				t.Fatalf("delete: %v", err)
			}
		}
	}
	if _, err := g.Get("acct", "missing"); err == nil {
		t.Fatal("get of a missing object succeeded")
	}
	if err := g.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	sum := func(name string, want map[string]string) int64 {
		var n int64
		for _, s := range samples {
			if s.Name == name && (want == nil || s.Labels["class"] == want["class"]) {
				n += int64(s.Value)
			}
		}
		return n
	}
	for _, class := range []string{"put", "get", "delete"} {
		want := sum("silica_gateway_completed_total", map[string]string{"class": class})
		if want == 0 {
			t.Fatalf("no %s requests completed", class)
		}
		if got := int64(st.Latencies[class].N); got != want {
			t.Errorf("latencies[%s].N = %d, silica_gateway_completed_total = %d", class, got, want)
		}
	}
	if got, want := int64(st.Latencies["flush"].N), sum("silica_gateway_flushes_total", nil); got != want || want == 0 {
		t.Errorf("latencies[flush].N = %d, silica_gateway_flushes_total = %d", got, want)
	}

	want := Counters{
		Accepted:  sum("silica_gateway_admitted_total", nil),
		Rejected:  sum("silica_gateway_rejected_total", nil),
		Completed: sum("silica_gateway_completed_total", nil),
		Canceled:  sum("silica_gateway_canceled_total", nil),
		Flushes:   sum("silica_gateway_flushes_total", nil),
	}
	if got := g.Counters(); got != want {
		t.Errorf("Counters() = %+v, summed obs counters = %+v", got, want)
	}
	if st.Counters != want {
		t.Errorf("/v1/stats counters = %+v, summed obs counters = %+v", st.Counters, want)
	}
}
