package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"silica/internal/service"
	"silica/internal/sim"
)

// TestAuditCatchesCorruption checks the audit itself: a wrong expected
// payload must count as corrupt, a missing object as lost, and a
// deleted object that still reads back as corrupt.
func TestAuditCatchesCorruption(t *testing.T) {
	st, err := startStack(specs[0], filepath.Join(t.TempDir(), "persist"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	objs := map[string]object{}
	for i, name := range []string{"a", "b", "c"} {
		o := object{Name: name, Size: 1000 * (i + 1), Seed: 7}
		objs[name] = o
		if _, err := st.client.Put(account, name, payload(o)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.client.Delete(account, "c"); err != nil {
		t.Fatal(err)
	}
	want := func(n string) []byte { return payload(objs[n]) }

	if rep := audit(st.client, []string{"a", "b"}, []string{"c"}, want); rep.bad() != 0 || rep.Checked != 3 {
		t.Fatalf("clean audit: %+v", rep)
	}
	corrupted := func(n string) []byte {
		b := want(n)
		if n == "b" {
			b[len(b)/2] ^= 1
		}
		return b
	}
	if rep := audit(st.client, []string{"a", "b"}, nil, corrupted); rep.Corrupt != 1 || rep.bad() != 1 {
		t.Fatalf("corrupted expectation not caught: %+v", rep)
	}
	if rep := audit(st.client, []string{"a", "c"}, nil, want); rep.Lost != 1 || rep.bad() != 1 {
		t.Fatalf("deleted object audited as present not caught as lost: %+v", rep)
	}
	if rep := audit(st.client, nil, []string{"a"}, want); rep.Corrupt != 1 {
		t.Fatalf("live object audited as deleted not caught: %+v", rep)
	}
}

// TestPlanRepeatsForSeed checks that a seed fixes every input and that
// another seed changes the traffic but not the corpus.
func TestPlanRepeatsForSeed(t *testing.T) {
	pub := service.DefaultConfig().Geom.PlatterUserBytes()
	for _, s := range specs {
		a := makePlan(s, 3, 5*time.Second, pub)
		b := makePlan(s, 3, 5*time.Second, pub)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different plans", s.Name)
		}
		c := makePlan(s, 4, 5*time.Second, pub)
		if reflect.DeepEqual(a.Ops, c.Ops) {
			t.Fatalf("%s: seeds 3 and 4 gave the same schedule", s.Name)
		}
		if !reflect.DeepEqual(a.Objects[:len(a.Corpus)], c.Objects[:len(c.Corpus)]) {
			t.Fatalf("%s: the corpus changed with the seed", s.Name)
		}
		for i := 1; i < len(a.Ops); i++ {
			if a.Ops[i].Due < a.Ops[i-1].Due {
				t.Fatalf("%s: schedule out of order at %d", s.Name, i)
			}
		}
	}
}

// TestZipfDrawsApportion checks that each rank appears in proportion
// to its weight, within one request.
func TestZipfDrawsApportion(t *testing.T) {
	rng := sim.NewRNG(1)
	const n, ranks = 1000, 50
	got := make([]int, ranks)
	for _, r := range zipfDraws(rng, n, ranks, 0.9) {
		got[r]++
	}
	total := 0.0
	for r := 0; r < ranks; r++ {
		total += 1 / math.Pow(float64(r+1), 0.9)
	}
	sum := 0
	for r, c := range got {
		sum += c
		exact := n / math.Pow(float64(r+1), 0.9) / total
		if float64(c) < exact-1 || float64(c) > exact+1 {
			t.Fatalf("rank %d drawn %d times, want %.2f", r, c, exact)
		}
	}
	if sum != n {
		t.Fatalf("drew %d ranks, want %d", sum, n)
	}
}
