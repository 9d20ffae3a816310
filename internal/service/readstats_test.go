package service

import (
	"bytes"
	"testing"
	"time"

	"silica/internal/media"
	"silica/internal/obs"
	"silica/internal/repair"
)

// TestReadStatsComeFromObsCounters: each read-path outcome is counted
// once, in the obs counters behind /metrics, and Stats reads those
// counters back, so the two views cannot drift.
func TestReadStatsComeFromObsCounters(t *testing.T) {
	cfg := smallSetConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := fillSet(t, s, cfg)
	if _, err := s.Put("acct", "staged", randBytes(70, 3000)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("acct", "staged"); err != nil {
		t.Fatal(err)
	}
	for name := range files {
		if _, err := s.Get("acct", name); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FailPlatter(platterOf(t, s, "acct", "bulk0")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("acct", "bulk0"); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	var buf bytes.Buffer
	if err := s.Metrics().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	counter := func(name, key, value string) int {
		smp, ok := obs.FindSample(samples, name, map[string]string{key: value})
		if !ok {
			t.Fatalf("%s{%s=%q} not exported", name, key, value)
		}
		return int(smp.Value)
	}
	for _, c := range []struct {
		field string
		got   int
		want  int
	}{
		{"StagedReads", st.StagedReads, counter("silica_service_reads_total", "source", "staged")},
		{"DurableReads", st.DurableReads, counter("silica_service_reads_total", "source", "durable")},
		{"SectorRepairs", st.SectorRepairs, counter("silica_read_recoveries_total", "tier", "sector")},
		{"TrackRebuilds", st.TrackRebuilds, counter("silica_read_recoveries_total", "tier", "track")},
		{"PlatterRecovers", st.PlatterRecovers, counter("silica_read_recoveries_total", "tier", "set")},
	} {
		if c.got != c.want {
			t.Errorf("Stats.%s = %d, obs counter = %d", c.field, c.got, c.want)
		}
	}
	if st.StagedReads != 1 || st.DurableReads != len(files)+1 || st.PlatterRecovers == 0 {
		t.Fatalf("read outcomes not counted once each: %+v", st)
	}
}

// TestSetlessPlatterStaysReadableAfterBadScrub: a platter whose
// platter-set has not completed loses its only information track, so
// every scrub finds it beyond within-track repair. The repair manager must
// stop at suspect: failing it would route reads to a set recovery with
// no set behind it. As a suspect, its object stays readable through the
// track tier.
func TestSetlessPlatterStaysReadableAfterBadScrub(t *testing.T) {
	cfg := smallSetConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(71, int(cfg.Geom.TrackUserBytes())/2)
	if _, err := s.Put("acct", "lonely", data); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	id := platterOf(t, s, "acct", "lonely")
	pi, ok := s.platterByID(id)
	if !ok {
		t.Fatalf("platter %d not published", id)
	}
	sectors := pi.platter.SectorContents()
	lost := cfg.Geom.InfoTrackPhysical(0)
	for sid := range sectors {
		if sid.Track == lost {
			delete(sectors, sid)
		}
	}
	s.mu.Lock()
	pi.platter = media.RestoreStored(id, cfg.Geom, sectors)
	s.mu.Unlock()

	rcfg := repair.DefaultConfig()
	rcfg.ScrubInterval = time.Millisecond
	m := repair.NewManager(s, s.Health(), nil, rcfg)
	m.Start()
	rec, _ := s.Health().Get(id)
	deadline := time.Now().Add(30 * time.Second)
	for rec.Health() == repair.Healthy && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m.Close()
	if rec.Health() != repair.Suspect {
		t.Fatalf("set-less platter health = %v after a bad scrub, want suspect", rec.Health())
	}
	got, err := s.Get("acct", "lonely")
	if err != nil {
		t.Fatalf("read of a set-less suspect platter: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read of a set-less suspect platter returned wrong bytes")
	}
	if s.Stats().TrackRebuilds == 0 {
		t.Fatal("lost track was not served by the track tier")
	}
}
