package obs

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// scrape renders r and parses it back, as a tool reading /metrics does.
func scrape(t *testing.T, r *Registry) []PromSample {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// logUniform draws seconds spread over 1e-7..1e2, so the underflow
// bucket, the interior and the overflow bucket all fill.
func logUniform(rng *rand.Rand) float64 {
	return math.Pow(10, -7+9*rng.Float64())
}

var probeQuantiles = []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}

// TestHistQuantileMatchesSnapshot: the consumer-side estimate from a
// parsed scrape is the producer-side estimate exactly, on random
// single-series histograms: one estimator, two entry points.
func TestHistQuantileMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		r := NewRegistry()
		h := r.Histogram("silica_test_seconds", "t", DurationBuckets(), L("class", "put"))
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			h.Observe(logUniform(rng))
		}
		samples := scrape(t, r)
		snap := h.Snapshot()
		for _, q := range probeQuantiles {
			got, ok := HistQuantile(samples, "silica_test_seconds", map[string]string{"class": "put"}, q)
			if want := snap.Quantile(q); !ok || got != want {
				t.Fatalf("trial %d (n=%d) q=%v: HistQuantile = %v ok=%v, Snapshot().Quantile = %v",
					trial, n, q, got, ok, want)
			}
		}
	}
}

// TestHistQuantileMergesSeries: a query matching several series
// estimates over their summed buckets, not over the buckets of each
// series laid side by side.
func TestHistQuantileMergesSeries(t *testing.T) {
	r := NewRegistry()
	fast := r.Histogram("silica_test_seconds", "t", DurationBuckets(), L("class", "get"))
	slow := r.Histogram("silica_test_seconds", "t", DurationBuckets(), L("class", "put"))
	for i := 0; i < 300; i++ {
		fast.Observe(0.001 * (1 + float64(i%7)/10))
	}
	for i := 0; i < 100; i++ {
		slow.Observe(0.5 * (1 + float64(i%5)/10))
	}
	a, b := fast.Snapshot(), slow.Snapshot()
	merged := HistSnapshot{Bounds: a.Bounds, Counts: make([]uint64, len(a.Counts))}
	for i := range merged.Counts {
		merged.Counts[i] = a.Counts[i] + b.Counts[i]
		merged.Count += merged.Counts[i]
	}
	samples := scrape(t, r)
	for _, q := range probeQuantiles {
		got, ok := HistQuantile(samples, "silica_test_seconds", nil, q)
		if want := merged.Quantile(q); !ok || got != want {
			t.Fatalf("q=%v over both classes: HistQuantile = %v ok=%v, merged quantile = %v", q, got, ok, want)
		}
	}
	if _, ok := HistQuantile(samples, "silica_test_seconds", map[string]string{"class": "delete"}, 0.5); ok {
		t.Fatal("HistQuantile reported a quantile for a series that does not exist")
	}
}

// TestDeltaPromWindow: the delta of two scrapes reads counters and
// histograms over the window between them only.
func TestDeltaPromWindow(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("silica_test_total", "t", L("class", "put"))
	h := r.Histogram("silica_test_seconds", "t", DurationBuckets())
	c.Add(5)
	for i := 0; i < 50; i++ {
		h.Observe(10) // slow history before the window
	}
	before := scrape(t, r)
	c.Add(3)
	late := r.Counter("silica_test_total", "t", L("class", "get")) // born inside the window
	late.Add(2)
	window := NewHistogram(DurationBuckets())
	for i := 0; i < 20; i++ {
		h.Observe(0.002)
		window.Observe(0.002)
	}
	d := DeltaProm(before, scrape(t, r))
	if s, _ := FindSample(d, "silica_test_total", map[string]string{"class": "put"}); s.Value != 3 {
		t.Fatalf("put counter delta = %v, want 3", s.Value)
	}
	if s, _ := FindSample(d, "silica_test_total", map[string]string{"class": "get"}); s.Value != 2 {
		t.Fatalf("new series delta = %v, want 2", s.Value)
	}
	if s, _ := FindSample(d, "silica_test_seconds_count", nil); s.Value != 20 {
		t.Fatalf("histogram count delta = %v, want 20", s.Value)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, ok := HistQuantile(d, "silica_test_seconds", nil, q)
		if want := window.Snapshot().Quantile(q); !ok || got != want {
			t.Fatalf("window q=%v = %v ok=%v, want %v", q, got, ok, want)
		}
	}

	// The source restarts between two scrapes: every counter starts
	// over, so the window is the whole of the new scrape, even for
	// series (the fast buckets) that have grown past their old values.
	r2 := NewRegistry()
	c2 := r2.Counter("silica_test_total", "t", L("class", "put"))
	h2 := r2.Histogram("silica_test_seconds", "t", DurationBuckets())
	g2 := r2.Gauge("silica_test_depth", "t")
	c2.Add(1)
	for i := 0; i < 40; i++ {
		h2.Observe(0.002)
	}
	g2.Set(4)
	g := r.Gauge("silica_test_depth", "t")
	g.Set(7)
	before = scrape(t, r)
	d = DeltaProm(before, scrape(t, r2))
	if s, _ := FindSample(d, "silica_test_total", map[string]string{"class": "put"}); s.Value != 1 {
		t.Fatalf("put counter after reset = %v, want 1", s.Value)
	}
	if s, _ := FindSample(d, "silica_test_seconds_count", nil); s.Value != 40 {
		t.Fatalf("histogram count after reset = %v, want 40", s.Value)
	}
	if s, _ := FindSample(d, "silica_test_depth", nil); s.Value != -3 {
		t.Fatalf("gauge change = %v, want -3", s.Value)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, ok := HistQuantile(d, "silica_test_seconds", nil, q)
		if want := h2.Snapshot().Quantile(q); !ok || got != want {
			t.Fatalf("after reset q=%v = %v ok=%v, want %v", q, got, ok, want)
		}
	}
}

// TestSummaryBounds: Summary's percentiles and Max are bucket
// estimates within 2x of the exact values for factor-2 buckets, and
// Mean is exact.
func TestSummaryBounds(t *testing.T) {
	if got := NewHistogram(DurationBuckets()).Snapshot().Summary(); got != (Summary{}) {
		t.Fatalf("empty summary = %+v", got)
	}
	h := NewHistogram(DurationBuckets())
	xs := []float64{0.003, 0.004, 0.0051, 0.02, 0.7}
	sum := 0.0
	for _, x := range xs {
		h.Observe(x)
		sum += x
	}
	s := h.Snapshot().Summary()
	if s.N != len(xs) || math.Abs(s.Mean-sum/float64(len(xs))) > 1e-12 {
		t.Fatalf("N/Mean = %d/%v, want %d/%v", s.N, s.Mean, len(xs), sum/float64(len(xs)))
	}
	within2x := func(name string, got, exact float64) {
		if got < exact/2 || got > exact*2 {
			t.Errorf("%s = %v, exact %v: outside 2x", name, got, exact)
		}
	}
	within2x("P50", s.P50, 0.0051)
	within2x("Max", s.Max, 0.7)
	if s.Max < 0.7 {
		t.Errorf("Max = %v below the largest observation", s.Max)
	}
	h.Observe(1000) // past the last bound: clamps
	if got, last := h.Snapshot().Max(), DurationBuckets()[len(DurationBuckets())-1]; got != last {
		t.Errorf("overflow Max = %v, want the last bound %v", got, last)
	}
}
