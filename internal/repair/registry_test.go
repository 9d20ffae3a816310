package repair

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"silica/internal/media"
)

func TestTransitionLegality(t *testing.T) {
	reg := NewRegistry()
	reg.Register(1, "published")

	// The full lifecycle is legal edge by edge.
	steps := []Health{Suspect, Healthy, Failed, Rebuilding, Retired}
	for _, to := range steps {
		if err := reg.Transition(1, to, "step"); err != nil {
			t.Fatalf("transition to %v: %v", to, err)
		}
	}
	// Retired is terminal.
	for _, to := range []Health{Healthy, Suspect, Failed, Rebuilding} {
		if err := reg.Transition(1, to, "revive"); err == nil {
			t.Fatalf("retired -> %v should be illegal", to)
		}
	}

	reg.Register(2, "published")
	if err := reg.Transition(2, Rebuilding, "skip"); err == nil {
		t.Fatal("healthy -> rebuilding should be illegal")
	}
	if err := reg.Transition(99, Failed, "ghost"); !errors.Is(err, ErrUnknownPlatter) {
		t.Fatalf("unknown platter error = %v", err)
	}
}

func TestSameStateTransitionIsNoOp(t *testing.T) {
	reg := NewRegistry()
	reg.Register(1, "published")
	if err := reg.Transition(1, Failed, "fail"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Transition(1, Failed, "fail again"); err != nil {
		t.Fatalf("same-state transition should be a no-op, got %v", err)
	}
	snap := reg.Snapshot()
	// Birth entry + one real transition; the duplicate added nothing.
	if n := len(snap.Platters[0].History); n != 2 {
		t.Fatalf("history length = %d, want 2", n)
	}
	if reg.TransitionTotal() != 1 {
		t.Fatalf("transition total = %d, want 1", reg.TransitionTotal())
	}
}

func TestSnapshotCountsAndHistory(t *testing.T) {
	reg := NewRegistry()
	at := time.Unix(1000, 0)
	reg.now = func() time.Time { return at }
	for id := media.PlatterID(1); id <= 3; id++ {
		reg.Register(id, "published")
	}
	reg.SetPlacement(2, 0, 1, false)
	reg.Transition(2, Failed, "injected failure")
	reg.Transition(2, Rebuilding, "rebuild started")
	reg.Transition(2, Retired, "rebuilt as platter 4")
	reg.Register(4, "rebuilt from set 0")

	snap := reg.Snapshot()
	if snap.Counts["healthy"] != 3 || snap.Counts["retired"] != 1 {
		t.Fatalf("counts = %v", snap.Counts)
	}
	if snap.Transitions["healthy->failed"] != 1 ||
		snap.Transitions["failed->rebuilding"] != 1 ||
		snap.Transitions["rebuilding->retired"] != 1 {
		t.Fatalf("transitions = %v", snap.Transitions)
	}
	// Platters sort by id; platter 2 carries the full arc.
	var p2 *PlatterHealth
	for i := range snap.Platters {
		if snap.Platters[i].Platter == 2 {
			p2 = &snap.Platters[i]
		}
	}
	if p2 == nil {
		t.Fatal("platter 2 missing from snapshot")
	}
	if p2.Set != 0 || p2.SetPos != 1 || p2.Health != "retired" {
		t.Fatalf("platter 2 = %+v", p2)
	}
	wantArc := []string{"healthy", "failed", "rebuilding", "retired"}
	if len(p2.History) != len(wantArc) {
		t.Fatalf("history = %+v", p2.History)
	}
	for i, tr := range p2.History {
		if tr.To != wantArc[i] {
			t.Fatalf("history[%d].To = %s, want %s", i, tr.To, wantArc[i])
		}
		if !tr.At.Equal(at) {
			t.Fatalf("history[%d].At = %v", i, tr.At)
		}
	}
	if !strings.Contains(p2.History[3].Reason, "rebuilt as platter 4") {
		t.Fatalf("retire reason = %q", p2.History[3].Reason)
	}
}

func TestTierReportsResetOnScrub(t *testing.T) {
	reg := NewRegistry()
	rec := reg.Register(1, "published")
	rec.ReportTier(TierSector)
	rec.ReportTier(TierTrack)
	rec.ReportTier(TierSet)
	if got := rec.reportsSinceScrub(); got != 3 {
		t.Fatalf("reports since scrub = %d", got)
	}
	reg.RecordScrub(1, ScrubReport{Platter: 1, TracksSampled: 1})
	if got := rec.reportsSinceScrub(); got != 0 {
		t.Fatalf("reports after scrub = %d", got)
	}
	// Lifetime counters survive the reset.
	snap := reg.Snapshot()
	p := snap.Platters[0]
	if p.SectorRepairs != 1 || p.TrackRebuilds != 1 || p.SetRecoveries != 1 {
		t.Fatalf("tier counters = %+v", p)
	}
	if p.Scrubs != 1 || p.LastScrub == nil {
		t.Fatalf("scrub bookkeeping = %+v", p)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	rec := reg.Register(1, "published")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				rec.ReportTier(TierSector)
				_ = rec.Unavailable()
				reg.Transition(1, Suspect, "load")
				reg.Transition(1, Healthy, "clear")
				reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := rec.tierReports[TierSector].Load(); got != 8*200 {
		t.Fatalf("tier reports = %d", got)
	}
}

// fakeTarget drives the manager without a real storage service.
type fakeTarget struct {
	mu       sync.Mutex
	platters []PlatterSummary
	reports  map[media.PlatterID]ScrubReport
	rebuilt  []media.PlatterID
	nextID   media.PlatterID
	reg      *Registry
}

func (f *fakeTarget) ListPlatters() []PlatterSummary {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]PlatterSummary(nil), f.platters...)
}

func (f *fakeTarget) ScrubPlatter(id media.PlatterID, maxTracks int) (ScrubReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep, ok := f.reports[id]
	if !ok {
		rep = ScrubReport{Platter: id, TracksSampled: 1, SectorsSampled: 10, MinMargin: 0.4, MeanMargin: 0.4}
	}
	return rep, nil
}

func (f *fakeTarget) RebuildPlatter(id media.PlatterID) (media.PlatterID, error) {
	f.mu.Lock()
	f.rebuilt = append(f.rebuilt, id)
	newID := f.nextID
	f.nextID++
	f.mu.Unlock()
	// Mirror the service: retire the old record at swap time.
	f.reg.Register(newID, "rebuilt")
	f.reg.Transition(id, Retired, "rebuilt")
	return newID, nil
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestManagerDetectsFailedAndRebuilds(t *testing.T) {
	reg := NewRegistry()
	ft := &fakeTarget{reports: map[media.PlatterID]ScrubReport{}, nextID: 100, reg: reg}
	for id := media.PlatterID(0); id < 3; id++ {
		reg.Register(id, "published")
		ft.platters = append(ft.platters, PlatterSummary{ID: id, Set: 0, SetPos: int(id)})
	}
	cfg := DefaultConfig()
	cfg.ScrubInterval = time.Millisecond
	m := NewManager(ft, reg, nil, cfg)
	m.Start()
	defer m.Close()

	// Inject a failure the way the service does; the scrub loop must
	// notice and drive the rebuild without further prompting.
	if err := reg.Transition(1, Failed, "injected failure"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		rec, _ := reg.Get(1)
		return rec.Health() == Retired
	})
	ft.mu.Lock()
	rebuilt := append([]media.PlatterID(nil), ft.rebuilt...)
	ft.mu.Unlock()
	if len(rebuilt) != 1 || rebuilt[0] != 1 {
		t.Fatalf("rebuilt = %v", rebuilt)
	}
	if m.Stats().RebuildsDone != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestManagerScrubEscalatesLowMargin(t *testing.T) {
	reg := NewRegistry()
	ft := &fakeTarget{reports: map[media.PlatterID]ScrubReport{}, nextID: 100, reg: reg}
	reg.Register(0, "published")
	ft.platters = []PlatterSummary{{ID: 0}}
	ft.reports[0] = ScrubReport{
		Platter: 0, TracksSampled: 2, SectorsSampled: 20, MinMargin: 0.01, MeanMargin: 0.2,
	}
	cfg := DefaultConfig()
	cfg.ScrubInterval = time.Millisecond
	cfg.SuspectMargin = 0.05
	m := NewManager(ft, reg, nil, cfg)
	m.Start()
	defer m.Close()
	waitFor(t, func() bool {
		rec, _ := reg.Get(0)
		return rec.Health() == Suspect
	})
	// Margins recover: the next clean scrub clears the suspicion.
	ft.mu.Lock()
	delete(ft.reports, 0)
	ft.mu.Unlock()
	waitFor(t, func() bool {
		rec, _ := reg.Get(0)
		return rec.Health() == Healthy
	})
}

func TestManagerGateBlocksScrubs(t *testing.T) {
	reg := NewRegistry()
	ft := &fakeTarget{reports: map[media.PlatterID]ScrubReport{}, nextID: 100, reg: reg}
	reg.Register(0, "published")
	ft.platters = []PlatterSummary{{ID: 0}}
	cfg := DefaultConfig()
	cfg.ScrubInterval = time.Millisecond
	m := NewManager(ft, reg, func() bool { return false }, cfg)
	m.Start()
	defer m.Close()
	waitFor(t, func() bool { return m.Stats().ScrubSkips > 5 })
	if m.Stats().Scrubs != 0 {
		t.Fatalf("scrubs ran with a closed gate: %+v", m.Stats())
	}
}

// TestRequestRebuildRejectsSetlessPlatter: an operator repair request
// for a platter outside any completed platter-set must be refused
// without touching its health — failing it would lose data that no
// redundancy can bring back — and a set-less platter that IS failed
// must not be spun through impossible rebuild attempts.
func TestRequestRebuildRejectsSetlessPlatter(t *testing.T) {
	reg := NewRegistry()
	ft := &fakeTarget{reports: map[media.PlatterID]ScrubReport{}, nextID: 100, reg: reg}
	reg.Register(0, "published")
	ft.platters = []PlatterSummary{{ID: 0, Set: -1}}
	cfg := DefaultConfig()
	cfg.ScrubInterval = time.Millisecond
	m := NewManager(ft, reg, nil, cfg)

	if err := m.RequestRebuild(0); !errors.Is(err, ErrNoRebuildSource) {
		t.Fatalf("RequestRebuild = %v, want ErrNoRebuildSource", err)
	}
	rec, _ := reg.Get(0)
	if rec.Health() != Healthy {
		t.Fatalf("health = %v after rejected request, want healthy", rec.Health())
	}

	// Even once failed, the scrub loop must not queue a rebuild that
	// can never succeed.
	if err := reg.Transition(0, Failed, "injected failure"); err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()
	// A failed, set-less platter is invisible to both the scrub sampler
	// (unavailable) and the rebuild queue; give the loops many ticks to
	// prove they leave it alone.
	time.Sleep(50 * time.Millisecond)
	st := m.Stats()
	if st.RebuildsDone != 0 || st.RebuildsFailed != 0 || st.RebuildsQueued != 0 {
		t.Fatalf("impossible rebuild attempted: %+v", st)
	}
	if rec.Health() != Failed {
		t.Fatalf("health = %v, want failed (stable)", rec.Health())
	}
	if n := reg.Snapshot().Transitions["failed->rebuilding"]; n != 0 {
		t.Fatalf("failed->rebuilding churn: %d transitions", n)
	}
}

// TestScrubStopsSetlessPlatterAtSuspect: a scrub that finds most
// sampled tracks beyond within-track repair fails a platter only when
// its platter-set is complete. Before that, failing it would send every
// read to a set recovery with no set behind it, so it stays a suspect
// (still served by the direct and track tiers). Once its set completes,
// the next such scrub fails and rebuilds it. Meanwhile the suspect
// must not hold the scrubber: a healthy platter listed after it is
// still swept.
func TestScrubStopsSetlessPlatterAtSuspect(t *testing.T) {
	reg := NewRegistry()
	ft := &fakeTarget{reports: map[media.PlatterID]ScrubReport{}, nextID: 100, reg: reg}
	reg.Register(0, "published")
	reg.Register(1, "published")
	ft.platters = []PlatterSummary{{ID: 0, Set: -1}, {ID: 1, Set: -1}}
	ft.reports[0] = ScrubReport{
		Platter: 0, TracksSampled: 2, TracksBeyondRepair: 2, WorstTrackFailures: 30,
		SectorsSampled: 40, SectorFailures: 30, MinMargin: 0.3, MeanMargin: 0.4,
	}
	cfg := DefaultConfig()
	cfg.ScrubInterval = time.Millisecond
	m := NewManager(ft, reg, nil, cfg)
	m.Start()
	defer m.Close()

	waitFor(t, func() bool { return m.Stats().Scrubs >= 10 })
	rec, _ := reg.Get(0)
	if rec.Health() != Suspect {
		t.Fatalf("set-less platter health = %v after bad scrubs, want suspect", rec.Health())
	}
	snap := reg.Snapshot()
	if n := snap.Transitions["suspect->failed"] + snap.Transitions["healthy->failed"]; n != 0 {
		t.Fatalf("set-less platter failed %d time(s)", n)
	}
	if s0, s1 := snap.Platters[0].Scrubs, snap.Platters[1].Scrubs; s1 < 3 {
		t.Fatalf("healthy platter scrubbed %d time(s) beside the suspect's %d", s1, s0)
	}

	// The set completes: the next bad scrub fails the platter and the
	// rebuilder replaces it.
	ft.mu.Lock()
	ft.platters[0].Set = 0
	ft.mu.Unlock()
	waitFor(t, func() bool { return rec.Health() == Retired })
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if len(ft.rebuilt) != 1 || ft.rebuilt[0] != 0 {
		t.Fatalf("rebuilt = %v, want [0]", ft.rebuilt)
	}
}
