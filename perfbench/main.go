// Command perfbench is the repository's end-to-end benchmark: an
// open-loop HTTP run of the calibrated glass data path. One process
// starts a gateway with silicad's defaults (repair on) on a fresh
// persistence directory, serves it on a loopback listener, and drives
// it through gateway.Client on a schedule drawn from the seed.
//
//	bash perfbench/run.sh --workload recall --seed 3 --seconds 10 --trace 0
//
// Workloads (see workloads.go): ingest (puts only), recall (gets of a
// durable corpus) and mixed (puts, gets and deletes on the library
// twin). With --trace 0 the last line of output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics, measured from outside the program: deltas of its /metrics
// and /v1/stats across the window, plus a replay of the run's objects
// through each layer's public functions. Every earlier line is a
// human-readable report of every metric with its unit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"silica/internal/service"
	"silica/internal/sim"
)

// Set-up runs at least minSetups times per invocation, and again until
// setupBudget has gone into it, at most maxSetups times; setup_s is the
// median. A set-up without a corpus takes milliseconds, and its median
// needs many more samples than one that preloads.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// maxGenLate bounds the generator's own p99 lateness. Above it the run
// is invalid: the generator, not the server, set the latencies.
const maxGenLate = 60 * time.Millisecond

// durableDeadline bounds the wait, after the window, for every
// acknowledged put to reach glass.
const durableDeadline = 60 * time.Second

func main() {
	os.Exit(run())
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	name := flag.String("workload", "", "workload: ingest, recall or mixed")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured window, seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for persistence, replay and trace files")
	flag.Parse()
	spec, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		return 2
	}
	out, err := bench(spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// report prints one human-readable metric line and returns the metric.
func report(name string, v float64, unit string, note string) metric {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-40s %14.6g %s%s\n", name, v, unit, note)
	return metric{Value: v, Unit: unit}
}

func bench(spec workloadSpec, seed uint64, win time.Duration, traced bool, scratch string) (*output, error) {
	geom := service.DefaultConfig().Geom
	p := makePlan(spec, seed, win, geom.PlatterUserBytes())
	fmt.Printf("workload %s seed %d: %d objects, %d corpus, %d ops in %s, %d connections, %s backend\n",
		spec.Name, seed, len(p.Objects), len(p.Corpus), len(p.Ops), win, conns, spec.Backend)

	// Set-up: build the stack, open persistence, preload the corpus.
	var st *stack
	var setupTimes []float64
	spent := 0.0
	for k := 0; st == nil; k++ {
		dir := filepath.Join(scratch, fmt.Sprintf("persist-%d-%d", os.Getpid(), k))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := startStack(spec, dir)
		if err != nil {
			return nil, err
		}
		if len(p.Corpus) > 0 {
			if err := preload(s, p, geom.PlatterUserBytes()); err != nil {
				s.close()
				return nil, err
			}
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		spent += setupTimes[k]
		if k+1 < maxSetups && (k+1 < minSetups || spent < setupBudget.Seconds()) {
			if err := s.close(); err != nil {
				return nil, err
			}
			runtime.GC()
			continue
		}
		st = s
	}
	defer st.close()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	dw := watchDurable(st)
	warm := runWindow(st, p, p.Warm, dw, nil)
	sp := tr.begin(ref{})
	before, err := takeScrape(st.client)
	tr.end(sp, ref{}, "scrape.before", 0)
	if err != nil {
		return nil, err
	}
	cpu0, steal0 := cpuTime(), stealTime()
	t0 := time.Now()
	res := runWindow(st, p, p.Ops, dw, tr)
	elapsed := time.Since(t0)
	cpu, steal := cpuTime()-cpu0, stealTime()-steal0
	sp = tr.begin(ref{})
	after, err := takeScrape(st.client)
	tr.end(sp, ref{}, "scrape.after", 0)
	if err != nil {
		return nil, err
	}
	durTimes, notDurable, depthMax := dw.drain(durableDeadline)

	// Audit every acknowledged object (window puts may be sampled).
	var present, deleted []string
	for _, i := range p.Corpus {
		present = append(present, p.Objects[i].Name)
	}
	var putObjs []object
	isDeleted := map[string]bool{}
	sent := append(append([]op(nil), p.Warm...), p.Ops...)
	sentRes := append(append([]result(nil), warm...), res...)
	for i, o := range sent {
		if sentRes[i].Out != outOK {
			continue
		}
		switch o.Kind {
		case opPut:
			putObjs = append(putObjs, p.Objects[o.Obj])
		case opDelete:
			isDeleted[p.Objects[o.Obj].Name] = true
			deleted = append(deleted, p.Objects[o.Obj].Name)
		}
	}
	kept := present[:0]
	for _, n := range present {
		if !isDeleted[n] {
			kept = append(kept, n)
		}
	}
	present = kept
	sample := putObjs
	if spec.AuditSample > 0 && len(sample) > spec.AuditSample {
		rng := sim.NewRNG(seed).Fork("perfbench/audit")
		perm := rng.Perm(len(putObjs))[:spec.AuditSample]
		sort.Ints(perm)
		sample = nil
		for _, i := range perm {
			sample = append(sample, putObjs[i])
		}
	}
	for _, o := range sample {
		present = append(present, o.Name)
	}
	byName := make(map[string]object, len(p.Objects))
	for _, o := range p.Objects {
		byName[o.Name] = o
	}
	aud := audit(st.client, present, deleted, func(n string) []byte { return payload(byName[n]) })
	endStats, err := st.client.Stats()
	if err != nil {
		return nil, err
	}
	// Platters the repair manager failed during the run: each one is
	// read only through its platter-set from then on, and a platter
	// outside a completed set cannot be read at all.
	failedPlatters := 0
	for _, ph := range endStats.Health.Platters {
		for _, t := range ph.History {
			if t.To == "failed" {
				failedPlatters++
				fmt.Printf("platter %d (set %d) failed: %s\n", ph.Platter, ph.Set, t.Reason)
				break
			}
		}
	}

	// Classify the window; warm-up requests count only as attempts.
	var lat [numOpKinds][]float64
	var all, svc, lateAll []float64
	var counts [numOpKinds]int
	var okBytes, putBytes float64
	refused, failed, lost, corrupt := 0, 0, 0, 0
	for i, r := range sentRes {
		switch r.Out {
		case outRefused:
			refused++
		case outFailed:
			failed++
		case outLost:
			lost++
		case outCorrupt:
			corrupt++
		}
		if i < len(warm) {
			continue
		}
		k := sent[i].Kind
		counts[k]++
		lateAll = append(lateAll, ms(r.Late))
		if r.Out == outOK {
			lat[k] = append(lat[k], ms(r.Latency))
			all = append(all, ms(r.Latency))
			svc = append(svc, ms(r.Service))
			okBytes += float64(r.Bytes)
			if k == opPut {
				putBytes += float64(r.Bytes)
			}
		}
	}
	attempted := len(sentRes) + aud.Checked
	bad := refused + failed + lost + corrupt + aud.bad()
	genLate := quantile(lateAll, 0.99)
	valid := genLate <= ms(maxGenLate)
	correct := lost+corrupt == 0 && aud.bad() == 0 && notDurable == 0 && valid

	fmt.Printf("window %.3fs, cpu %.3fs, host steal %.3fs; audit checked %d: %d lost, %d corrupt, %d failed; %d puts not durable\n",
		elapsed.Seconds(), cpu.Seconds(), steal.Seconds(), aud.Checked, aud.Lost, aud.Corrupt, aud.Failed, notDurable)
	report("gen_late_p99_ms", genLate, "ms", fmt.Sprintf("bound %.0f ms, valid=%v", ms(maxGenLate), valid))
	report("ops_failed_frac", ratio(float64(bad), float64(attempted)), "1",
		fmt.Sprintf("%d refused, %d failed, %d lost, %d corrupt in requests; %d bad in audit; of %d", refused, failed, lost, corrupt, aud.bad(), attempted))
	for k := opKind(0); k < numOpKinds; k++ {
		if counts[k] == 0 {
			continue
		}
		n := fmt.Sprintf("n=%d", len(lat[k]))
		report(k.String()+"_p50_ms", quantile(lat[k], 0.5), "ms", n)
		report(k.String()+"_p99_ms", quantile(lat[k], 0.99), "ms", n)
	}
	if len(durTimes) > 0 {
		d := make([]float64, len(durTimes))
		for i, t := range durTimes {
			d[i] = t.Seconds()
		}
		n := fmt.Sprintf("n=%d", len(d))
		report("durable_p50_s", quantile(d, 0.5), "s", n)
		report("durable_p99_s", quantile(d, 0.99), "s", n)
	}

	// Every information platter burned counts whole, however full, plus
	// its share of its set's redundancy platters: those burn only when
	// the set completes, so counting them as they burn would make the
	// ratio jump by whole platters with the window's timing.
	svcCfg := service.DefaultConfig()
	platters := float64(endStats.Service.PlattersWritten) * float64(svcCfg.SetInfo+svcCfg.SetRed) / float64(svcCfg.SetInfo)
	var ackedBytes float64
	for _, i := range p.Corpus {
		ackedBytes += float64(p.Objects[i].Size)
	}
	for _, o := range putObjs {
		ackedBytes += float64(o.Size)
	}
	mb := okBytes / 1e6

	m := map[string]metric{}
	if !traced {
		n := fmt.Sprintf("n=%d", len(all))
		m["setup_s"] = report("setup_s", median(setupTimes), "s", fmt.Sprintf("median of %d: %s", len(setupTimes), fmtList(setupTimes)))
		// Latency is reported, not gated. On two cores that the scrubber
		// and flush verification keep busy, every request waits for the
		// Go scheduler, latency runs in phases of a few seconds, and
		// every percentile moved by 10-30% between runs of one seed
		// (README.md).
		report("p50_ms", quantile(all, 0.5), "ms", n)
		report("p75_ms", quantile(all, 0.75), "ms", n)
		report("p90_ms", quantile(all, 0.9), "ms", n)
		report("p95_ms", quantile(all, 0.95), "ms", n)
		m["cpu_s_per_MB"] = report("cpu_s_per_MB", ratio(cpu.Seconds(), mb), "s/MB", fmt.Sprintf("%.3f MB put+got", mb))
		report("glass_bytes_per_user_byte",
			ratio(platters*float64(geom.PlatterRawBytes()), ackedBytes), "1",
			fmt.Sprintf("%d information platters, %.0f user bytes", endStats.Service.PlattersWritten, ackedBytes))
		rss, err := rssPeakMB()
		if err != nil {
			return nil, err
		}
		m["rss_peak_MB"] = report("rss_peak_MB", rss, "MB", "")
	} else {
		wd := deltaOf(before, after)
		lm := layerMetrics(wd, windowFacts{
			secs: elapsed.Seconds(), attempted: len(res), puts: len(lat[opPut]),
			putMB: putBytes / 1e6, clientMeanMs: mean(svc), genLateMs: genLate, backendDepthMax: depthMax, failedPlatters: failedPlatters,
		})
		var replayObjs []object
		if len(putObjs) > 0 {
			replayObjs = putObjs
		} else {
			for _, i := range p.Readable {
				replayObjs = append(replayObjs, p.Objects[i])
			}
		}
		rc, err := replay(tr, replayObjs, seed, filepath.Join(scratch, fmt.Sprintf("replay-%d", os.Getpid())))
		if err != nil {
			return nil, err
		}
		if rc.Mismatch > 0 {
			correct = false
		}
		for k, v := range replayMetrics(tr, rc) {
			lm[k] = v
		}
		spanCost := costPerSpan()
		lm["tracing.overhead_frac"] = ratio(ms(spanCost), mean(svc))
		lm["tracing.p90_ms"] = quantile(all, 0.9)
		names := make([]string, 0, len(lm))
		for k := range lm {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m[k] = report(k, lm[k], layerUnit(k), "")
		}
		path := filepath.Join(scratch, fmt.Sprintf("trace-%s-%d.jsonl", spec.Name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("%d spans written to %s\n", len(tr.spans), path)
	}
	return &output{Correct: correct, Attempted: attempted, Failed: bad, Metrics: m}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime reads the CPU time the hypervisor took from this host's
// vCPUs (the steal column of /proc/stat); noisy neighbours show here.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	fields := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(fields[8], 64)
	return time.Duration(ticks * float64(time.Second) / 100) // USER_HZ
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}
