package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"silica/internal/sim"
	"silica/internal/workload"
)

// workloadSpec fixes one traffic mix. Every field is a constant of the
// benchmark: the program under test sees only the generated requests.
type workloadSpec struct {
	Name string

	// Backend is the gateway's media backend ("direct" or "twin");
	// TwinSpeedup is the twin's virtual-to-wall clock ratio.
	Backend     string
	TwinSpeedup float64

	// Open-loop Poisson arrival rates, requests per second.
	PutRate float64
	GetRate float64
	// DeleteShare is the share of all requests that are deletes.
	DeleteShare float64

	// CorpusPlatters sizes the durable corpus preloaded in set-up, in
	// platters' worth of user bytes (0 = no corpus).
	CorpusPlatters float64
	// DeletePool is the share of the corpus reserved as delete targets;
	// those objects are never read in the window.
	DeletePool float64
	// ZipfS skews get popularity over the readable corpus.
	ZipfS float64

	// WarmUp is sent, at the workload's rates, before the measured
	// window and not measured: it runs the first flushes so the window
	// starts with platters published and the scrubber busy, as it is
	// from then on.
	WarmUp time.Duration

	// AuditSample bounds how many acknowledged window puts the audit
	// reads back (0 = all). Corpus objects are always audited in full.
	AuditSample int
}

// The workloads, and why each was chosen, are listed in BENCHMARK.json
// and README.md. Rates are set for a 2-core x86-64 host (go1.24,
// GOMAXPROCS=2): flush verification drains about 0.11 MB/s of user
// bytes there, so ingest puts about half that, and recall's gets leave
// the connections idle most of the time.
var specs = []workloadSpec{
	{
		Name:        "ingest",
		Backend:     "direct",
		PutRate:     10,
		WarmUp:      5 * time.Second,
		AuditSample: 48,
	},
	{
		Name:           "recall",
		Backend:        "direct",
		GetRate:        15,
		CorpusPlatters: 2,
		ZipfS:          0.9,
	},
	{
		Name:           "mixed",
		Backend:        "twin",
		TwinSpeedup:    1000,
		PutRate:        10,
		GetRate:        5,
		DeleteShare:    0.05,
		CorpusPlatters: 2,
		DeletePool:     0.25,
		ZipfS:          0.9,
		WarmUp:         5 * time.Second,
		AuditSample:    48,
	},
}

func specByName(name string) (workloadSpec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want ingest, recall or mixed)", name)
}

// sizeModel is Figure 1(b)'s file-size model with its bounds scaled
// down 1024x and its tail cut at the third bucket, so objects span
// roughly 1 to 64 tiny-geometry sectors (1000-byte payloads).
func sizeModel() *workload.SizeModel {
	return workload.NewSizeModel(
		[]int64{4 * workload.KiB, 16 * workload.KiB, 64 * workload.KiB},
		[]float64{58.7, 29.0, 4.0})
}

type opKind int

const (
	opPut opKind = iota
	opGet
	opDelete
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"put", "get", "delete"}[k]
}

// object is one benchmark object; its bytes are regenerated from its
// seed and name, so nothing large is held between uses.
type object struct {
	Name string
	Size int
	Seed uint64
}

// op is one scheduled request: due is its send time relative to the
// start of the measured window.
type op struct {
	Due  time.Duration
	Kind opKind
	Obj  int // index into plan.Objects
}

// plan is everything a run sends, generated from the seed alone.
type plan struct {
	Objects []object
	// Corpus indexes the preloaded objects; Readable is the part gets
	// target, ordered hottest first.
	Corpus   []int
	Readable []int
	// Warm is sent before the window and not measured; Ops is the
	// measured window.
	Warm []op
	Ops  []op
	// deletable is the part of the corpus not yet scheduled for delete.
	deletable []int
}

// payload regenerates an object's bytes.
func payload(o object) []byte {
	rng := sim.NewRNG(o.Seed).Fork("payload/" + o.Name)
	b := make([]byte, o.Size)
	for i := 0; i < len(b); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// corpusSeed draws the preloaded corpus: the archive's contents and
// their popularity ranks are the same in every run, and the run seed
// drives the traffic. A seed-drawn corpus would let the sizes of the
// few hottest objects swing the read latencies from seed to seed.
const corpusSeed = 0x5111ca

// makePlan draws the corpus and the open-loop schedule for one run.
func makePlan(s workloadSpec, seed uint64, window time.Duration, platterUserBytes int64) *plan {
	p := &plan{}

	if s.CorpusPlatters > 0 {
		rng := sim.NewRNG(corpusSeed).Fork("perfbench/corpus/" + s.Name)
		sizes := sizeModel()
		target := int64(s.CorpusPlatters * float64(platterUserBytes))
		var total int64
		for i := 0; total < target; i++ {
			o := object{Name: fmt.Sprintf("c%05d", i), Size: int(sizes.Sample(rng)), Seed: corpusSeed}
			p.Corpus = append(p.Corpus, len(p.Objects))
			p.Objects = append(p.Objects, o)
			total += int64(o.Size)
		}
		nRead := len(p.Corpus) - int(s.DeletePool*float64(len(p.Corpus)))
		// Popularity rank is a seeded permutation, so the hot set is not
		// simply the first objects written.
		perm := rng.Perm(nRead)
		for _, i := range perm {
			p.Readable = append(p.Readable, p.Corpus[i])
		}
	}
	p.deletable = p.Corpus[len(p.Readable):]
	sched := sim.NewRNG(seed).Fork("perfbench/schedule/" + s.Name)
	p.Warm = p.schedule(s, sched.Fork("warm-up"), s.WarmUp.Seconds(), "u", seed)
	p.Ops = p.schedule(s, sched.Fork("window"), window.Seconds(), "w", seed)
	return p
}

// schedule draws secs seconds of requests, adding the objects it puts
// under names prefix+index.
//
// Each request stream is a Poisson process conditioned on its count,
// so arrival times are sorted uniform draws. The count, the put sizes
// and the per-object get counts are stratified rather than drawn
// independently: with a heavy-tailed size mix, a few hundred
// independent draws would let the bytes moved in a window swing by a
// fifth from seed to seed. The seed still sets every time, every order
// and which sizes land where.
func (p *plan) schedule(s workloadSpec, rng *sim.RNG, secs float64, prefix string, seed uint64) []op {
	var ops []op
	putTimes := arrivals(rng, s.PutRate*secs, secs)
	for i, size := range stratifiedSizes(rng, sizeModel(), len(putTimes)) {
		o := object{Name: fmt.Sprintf("%s%05d", prefix, i), Size: size, Seed: seed}
		ops = append(ops, op{Due: putTimes[i], Kind: opPut, Obj: len(p.Objects)})
		p.Objects = append(p.Objects, o)
	}
	getTimes := arrivals(rng, s.GetRate*secs, secs)
	for i, r := range zipfDraws(rng, len(getTimes), len(p.Readable), s.ZipfS) {
		ops = append(ops, op{Due: getTimes[i], Kind: opGet, Obj: p.Readable[r]})
	}
	// Each pool object is deleted once; a run longer than the pool
	// covers sends no further deletes.
	delRate := 0.0
	if s.DeleteShare > 0 {
		delRate = (s.PutRate + s.GetRate) * s.DeleteShare / (1 - s.DeleteShare)
	}
	for _, t := range arrivals(rng, min(delRate*secs, float64(len(p.deletable))), secs) {
		ops = append(ops, op{Due: t, Kind: opDelete, Obj: p.deletable[0]})
		p.deletable = p.deletable[1:]
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
	return ops
}

// arrivals returns round(expect) sorted uniform times in [0, secs).
func arrivals(rng *sim.RNG, expect, secs float64) []time.Duration {
	ts := make([]float64, int(math.Round(expect)))
	for i := range ts {
		ts[i] = rng.Float64() * secs
	}
	sort.Float64s(ts)
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// stratifiedSizes returns n sizes from the model: every eighth order
// statistic of 8n draws, in random order.
func stratifiedSizes(rng *sim.RNG, m *workload.SizeModel, n int) []int {
	const over = 8
	pool := make([]int, over*n)
	for i := range pool {
		pool[i] = int(m.Sample(rng))
	}
	sort.Ints(pool)
	out := make([]int, n)
	for i := range out {
		out[i] = pool[over*i+rng.Intn(over)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipfDraws returns n popularity ranks in [0, ranks): each rank appears
// in proportion to its Zipf(s) weight (largest remainder), in random
// order.
func zipfDraws(rng *sim.RNG, n, ranks int, s float64) []int {
	if n == 0 || ranks == 0 {
		return nil
	}
	w := make([]float64, ranks)
	total := 0.0
	for r := range w {
		w[r] = math.Pow(float64(r+1), -s)
		total += w[r]
	}
	out := make([]int, 0, n)
	rem := make([]int, ranks)
	for r := range w {
		exact := float64(n) * w[r] / total
		k := int(exact)
		for j := 0; j < k; j++ {
			out = append(out, r)
		}
		w[r] = exact - float64(k)
		rem[r] = r
	}
	sort.SliceStable(rem, func(i, j int) bool { return w[rem[i]] > w[rem[j]] })
	for _, r := range rem[:n-len(out)] {
		out = append(out, r)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
