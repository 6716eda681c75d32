package quality

import (
	"strings"
	"sync"
	"testing"

	"xar/internal/telemetry"
)

func TestStageNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumStages; i++ {
		n := StageName(i)
		if n == "" {
			t.Fatalf("stage %d has no name", i)
		}
		if seen[n] {
			t.Fatalf("duplicate stage name %q", n)
		}
		seen[n] = true
	}
	if StageName(-1) != "" || StageName(NumStages) != "" {
		t.Fatal("out-of-range stage must name to empty")
	}
	if len(Stages()) != NumStages {
		t.Fatalf("Stages() returned %d names", len(Stages()))
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.AddFunnel(&[NumStages]uint64{1, 2, 3}, 6)
	c.ObserveSlack(0.5)
	c.ObserveEpsilonConsumption(0.5)
	c.Unlock(ConstraintDetour)
	c.ShadowTask(TaskNoMatch)
	c.ShadowDropped()
	c.ObserveRegret(10, true)
	c.SetShadowEnabled(true)
	if c.Examined() != 0 || c.FunnelTotal(Matched) != 0 || c.UnlockTotal(ConstraintDetour) != 0 {
		t.Fatal("nil collector reported non-zero")
	}
	s := c.Snapshot()
	if s.Funnel == nil || s.Shadow.Unlocks == nil {
		t.Fatal("nil collector snapshot must have non-nil maps")
	}
	if _, _, stable := c.AccountingGap(); !stable {
		t.Fatal("nil collector gap must be stable")
	}
}

func TestFunnelAccumulationAndExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(reg)

	// Eager registration: every stage and constraint present at zero.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, st := range Stages() {
		if !strings.Contains(b.String(), `xar_search_funnel_total{stage="`+st+`"} 0`) {
			t.Fatalf("fresh exposition missing stage %q:\n%s", st, b.String())
		}
	}
	for _, con := range Constraints() {
		if !strings.Contains(b.String(), `xar_shadow_unlock_total{constraint="`+con+`"} 0`) {
			t.Fatalf("fresh exposition missing constraint %q", con)
		}
	}

	counts := [NumStages]uint64{}
	counts[WindowMiss] = 3
	counts[WalkLimit] = 1
	counts[Matched] = 2
	c.AddFunnel(&counts, 6)
	c.AddFunnel(&[NumStages]uint64{}, 0) // all-zero: no examined growth

	if got := c.Examined(); got != 6 {
		t.Fatalf("examined = %d, want 6", got)
	}
	if got := c.FunnelTotal(WindowMiss); got != 3 {
		t.Fatalf("window_miss = %d", got)
	}
	if got := c.FunnelTotal(Matched); got != 2 {
		t.Fatalf("matched = %d", got)
	}
	ex, sum, stable := c.AccountingGap()
	if !stable || ex != 6 || sum != 6 {
		t.Fatalf("gap = (%d, %d, %v), want (6, 6, true)", ex, sum, stable)
	}

	s := c.Snapshot()
	if s.CandidatesExamined != 6 || s.Funnel["window_miss"] != 3 || s.Funnel["matched"] != 2 {
		t.Fatalf("snapshot funnel wrong: %+v", s)
	}
}

func TestSlackAndEpsilonSummaries(t *testing.T) {
	c := New(nil) // private registry: cost without exposition
	for _, v := range []float64{0.1, 0.2, 0.3, 0.9} {
		c.ObserveSlack(v)
	}
	c.ObserveEpsilonConsumption(0.05)
	s := c.Snapshot()
	if s.DetourSlack.Count != 4 {
		t.Fatalf("slack count = %d", s.DetourSlack.Count)
	}
	if s.DetourSlack.Mean < 0.3 || s.DetourSlack.Mean > 0.45 {
		t.Fatalf("slack mean = %v", s.DetourSlack.Mean)
	}
	if s.DetourSlack.P99 < s.DetourSlack.P50 {
		t.Fatalf("p99 %v < p50 %v", s.DetourSlack.P99, s.DetourSlack.P50)
	}
	if s.EpsilonConsumption.Count != 1 {
		t.Fatalf("epsilon count = %d", s.EpsilonConsumption.Count)
	}
}

func TestShadowStats(t *testing.T) {
	c := New(nil)
	c.SetShadowEnabled(true)
	c.Unlock(ConstraintDetour)
	c.Unlock(ConstraintDetour)
	c.Unlock(ConstraintNone)
	c.Unlock("bogus") // ignored
	c.ShadowTask(TaskNoMatch)
	c.ShadowTask(TaskRegret)
	c.ShadowDropped()
	c.ObserveRegret(100, true)
	c.ObserveRegret(300, true)
	c.ObserveRegret(0, true)    // rematched, no better alternative
	c.ObserveRegret(999, false) // nothing found: regret unmeasurable

	if got := c.UnlockTotal(ConstraintDetour); got != 2 {
		t.Fatalf("detour unlocks = %d", got)
	}
	s := c.Snapshot()
	if !s.Shadow.Enabled {
		t.Fatal("enabled flag lost")
	}
	if s.Shadow.Unlocks[ConstraintDetour] != 2 || s.Shadow.Unlocks[ConstraintNone] != 1 {
		t.Fatalf("unlocks = %v", s.Shadow.Unlocks)
	}
	if s.Shadow.Tasks[TaskNoMatch] != 1 || s.Shadow.Tasks[TaskRegret] != 1 || s.Shadow.Dropped != 1 {
		t.Fatalf("tasks = %v dropped = %d", s.Shadow.Tasks, s.Shadow.Dropped)
	}
	r := s.Shadow.Regret
	if r.Bookings != 4 || r.Rematched != 3 || r.WithRegret != 2 {
		t.Fatalf("regret counts = %+v", r)
	}
	if r.MeanM != 200 || r.MaxM != 300 {
		t.Fatalf("regret mean/max = %v/%v", r.MeanM, r.MaxM)
	}
}

// TestConcurrentAddFunnel is the collector-level half of the funnel
// accounting -race check: concurrent AddFunnel calls must converge to an
// exact examined == stage-sum identity once quiescent.
func TestConcurrentAddFunnel(t *testing.T) {
	c := New(nil)
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				counts := [NumStages]uint64{}
				counts[(g+i)%NumStages] = uint64(1 + i%3)
				counts[(g+i+1)%NumStages] = 1
				c.AddFunnel(&counts, counts[(g+i)%NumStages]+1)
			}
		}(g)
	}
	wg.Wait()
	ex, sum, stable := c.AccountingGap()
	if !stable {
		t.Fatal("quiescent collector read unstable")
	}
	if ex != sum {
		t.Fatalf("examined %d != classified %d", ex, sum)
	}
	if ex == 0 {
		t.Fatal("nothing recorded")
	}
}
