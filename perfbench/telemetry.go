package main

import (
	"fmt"
	"sort"
	"strings"

	"silica/internal/gateway"
	"silica/internal/obs"
)

// scrape is one read of the program's own telemetry: /metrics and
// /v1/stats.
type scrape struct {
	samples []obs.PromSample
	stats   gateway.StatsSnapshot
}

func takeScrape(c *gateway.Client) (scrape, error) {
	samples, err := c.Metrics()
	if err != nil {
		return scrape{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	st, err := c.Stats()
	if err != nil {
		return scrape{}, fmt.Errorf("scrape /v1/stats: %w", err)
	}
	return scrape{samples: samples, stats: st}, nil
}

func seriesKey(s obs.PromSample) string {
	keys := make([]string, 0, len(s.Labels))
	for k, v := range s.Labels {
		keys = append(keys, k+"="+v)
	}
	sort.Strings(keys)
	return s.Name + "{" + strings.Join(keys, ",") + "}"
}

// windowDelta holds after-minus-before for every counter and histogram
// series, and the after value of every gauge, so every number derived
// from it covers exactly the measured window.
type windowDelta struct {
	d      []obs.PromSample
	after  []obs.PromSample
	before gateway.StatsSnapshot
	end    gateway.StatsSnapshot
}

func deltaOf(before, after scrape) windowDelta {
	prev := make(map[string]float64, len(before.samples))
	for _, s := range before.samples {
		prev[seriesKey(s)] = s.Value
	}
	d := make([]obs.PromSample, len(after.samples))
	for i, s := range after.samples {
		d[i] = obs.PromSample{Name: s.Name, Labels: s.Labels, Value: s.Value - prev[seriesKey(s)]}
	}
	return windowDelta{d: d, after: after.samples, before: before.stats, end: after.stats}
}

// sum adds the window deltas of every series named name whose labels
// contain want.
func (w windowDelta) sum(name string, want map[string]string) float64 {
	return sumOf(w.d, name, want)
}

// gauge sums the post-window values of a gauge.
func (w windowDelta) gauge(name string, want map[string]string) float64 {
	return sumOf(w.after, name, want)
}

func sumOf(samples []obs.PromSample, name string, want map[string]string) float64 {
	total := 0.0
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.Value
		}
	}
	return total
}

// quantile estimates q of a histogram over the window from its delta
// buckets (0 when the window observed nothing).
func (w windowDelta) quantile(name string, want map[string]string, q float64) float64 {
	v, ok := obs.HistQuantile(w.d, name, want, q)
	if !ok {
		return 0
	}
	return v
}

// mean is a histogram's window mean (0 when empty).
func (w windowDelta) mean(name string, want map[string]string) float64 {
	return ratio(w.sum(name+"_sum", want), w.sum(name+"_count", want))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func lbl(kv ...string) map[string]string {
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}
