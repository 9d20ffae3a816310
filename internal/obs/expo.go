package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteProm renders every registered family in Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, then one
// line per labeled instance; histograms expand into cumulative
// _bucket{le=...} series plus _sum and _count. Scrape hooks run first
// so mirrored gauges (queue depths, staging occupancy, health states)
// are fresh. Writers are never stopped: values are atomic loads.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, hook := range hooks {
		hook()
	}
	bw := bufio.NewWriter(w)
	for _, f := range families {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]*child, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		sort.Sort(byLabels{keys, children})
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range children {
			switch f.kind {
			case counterKind:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(c.labels, "", ""), c.counter.Value())
			case gaugeKind:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labelString(c.labels, "", ""), formatFloat(c.gauge.Value()))
			case histogramKind:
				s := c.hist.Snapshot()
				var cum uint64
				for i, cnt := range s.Counts {
					cum += cnt
					le := "+Inf"
					if i < len(s.Bounds) {
						le = formatFloat(s.Bounds[i])
					}
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(c.labels, "le", le), cum)
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, labelString(c.labels, "", ""), formatFloat(s.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labelString(c.labels, "", ""), s.Count)
			}
		}
	}
	return bw.Flush()
}

// byLabels sorts children (and their keys, kept in lockstep) by label
// identity for deterministic exposition.
type byLabels struct {
	keys     []string
	children []*child
}

func (s byLabels) Len() int           { return len(s.keys) }
func (s byLabels) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s byLabels) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.children[i], s.children[j] = s.children[j], s.children[i]
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (the histogram le bound). Empty label sets render as nothing.
func labelString(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	ls := append([]Label(nil), labels...)
	if extraKey != "" {
		ls = append(ls, Label{extraKey, extraVal})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s=%q`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// PromSample is one parsed exposition line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseProm parses Prometheus text exposition (the subset WriteProm
// emits: HELP/TYPE comments, name{labels} value lines). Tools
// (silica-load's end-of-run scrape, silicactl top) and tests use it to
// read /metrics back.
func ParseProm(r io.Reader) ([]PromSample, error) {
	var out []PromSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parsePromLine(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[i+1:end], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("malformed sample %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, into map[string]string) error {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return fmt.Errorf("malformed labels %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		rest := body[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value in %q", body)
		}
		// Scan to the closing quote, honoring escapes.
		var val strings.Builder
		i := 1
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated label value in %q", body)
		}
		into[key] = val.String()
		body = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		body = strings.TrimSpace(body)
	}
	return nil
}

// matchLabels reports whether sample labels contain every pair in
// want.
func matchLabels(got, want map[string]string) bool {
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// FindSample returns the first parsed sample with the given name whose
// labels contain every pair in want.
func FindSample(samples []PromSample, name string, want map[string]string) (PromSample, bool) {
	for _, s := range samples {
		if s.Name == name && matchLabels(s.Labels, want) {
			return s, true
		}
	}
	return PromSample{}, false
}

// HistQuantile estimates a quantile from parsed <name>_bucket samples
// whose labels contain every pair in want — the consumer-side
// counterpart of HistSnapshot.Quantile, used by silica-load and
// silicactl top. Every matching series is summed into one histogram
// first, so a query spanning several label sets (all classes, say)
// estimates over their merged buckets. Reports false when nothing
// matched or the merged histogram is empty.
func HistQuantile(samples []PromSample, name string, want map[string]string, q float64) (float64, bool) {
	h := foldHist(samples, name, want)
	if h.Count == 0 {
		return 0, false
	}
	return h.Quantile(q), true
}

// foldHist rebuilds one HistSnapshot from the cumulative _bucket
// samples of every matching series, summing counts that share an le
// bound (series of one family share their bounds).
func foldHist(samples []PromSample, name string, want map[string]string) HistSnapshot {
	cum := map[float64]float64{}
	for _, s := range samples {
		if s.Name != name+"_bucket" || !matchLabels(s.Labels, want) {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64) // accepts "+Inf"
		if err != nil || math.IsNaN(le) {
			continue
		}
		cum[le] += s.Value
	}
	var h HistSnapshot
	for le := range cum {
		if !math.IsInf(le, 1) {
			h.Bounds = append(h.Bounds, le)
		}
	}
	sort.Float64s(h.Bounds)
	h.Counts = make([]uint64, len(h.Bounds)+1)
	prev := 0.0
	for i := range h.Counts {
		c := cum[math.Inf(1)]
		if i < len(h.Bounds) {
			c = cum[h.Bounds[i]]
		}
		if c > prev {
			h.Counts[i] = uint64(c - prev)
			h.Count += h.Counts[i]
			prev = c
		}
	}
	return h
}

// DeltaProm returns after minus before for every series in after
// (matched by name and labels; a series absent from before counts from
// zero), so counters and histograms read over the window between two
// scrapes. A gauge's delta is its change over the window. If any
// counter went down, the source restarted between the scrapes (all of
// its counters reset together), so every counter reads from zero: its
// delta is its after value, as in Prometheus' counter-reset rule.
func DeltaProm(before, after []PromSample) []PromSample {
	prev := make(map[string]float64, len(before))
	for _, s := range before {
		prev[seriesKey(s)] = s.Value
	}
	reset := false
	for _, s := range after {
		if isCounter(s.Name) && s.Value < prev[seriesKey(s)] {
			reset = true
			break
		}
	}
	out := make([]PromSample, len(after))
	for i, s := range after {
		v := s.Value
		if !reset || !isCounter(s.Name) {
			v -= prev[seriesKey(s)]
		}
		out[i] = PromSample{Name: s.Name, Labels: s.Labels, Value: v}
	}
	return out
}

// isCounter reports whether a parsed series only grows while its
// source runs: a counter or a histogram's bucket, count or sum.
func isCounter(name string) bool {
	for _, suf := range []string{"_total", "_bucket", "_count", "_sum"} {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

// seriesKey identifies a parsed series by name and sorted labels.
func seriesKey(s PromSample) string {
	ls := make([]Label, 0, len(s.Labels))
	for k, v := range s.Labels {
		ls = append(ls, Label{k, v})
	}
	return s.Name + labelString(ls, "", "")
}
