package load

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestConstantSchedule(t *testing.T) {
	s := Constant(100, 50)
	if s.Len() != 50 {
		t.Fatalf("Len = %d, want 50", s.Len())
	}
	if s.OfferedRate() != 100 {
		t.Fatalf("OfferedRate = %v, want 100", s.OfferedRate())
	}
	if s.At(0) != 0 {
		t.Fatalf("first arrival at %v, want 0", s.At(0))
	}
	for i := 1; i < s.Len(); i++ {
		gap := s.At(i) - s.At(i-1)
		if want := 10 * time.Millisecond; gap != want {
			t.Fatalf("gap %d = %v, want %v", i, gap, want)
		}
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate, n = 200.0, 4000
	s := Poisson(rate, n, 7)
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	// Monotone non-decreasing, strictly positive first gap almost surely.
	for i := 1; i < n; i++ {
		if s.At(i) < s.At(i-1) {
			t.Fatalf("arrivals not monotone at %d: %v < %v", i, s.At(i), s.At(i-1))
		}
	}
	// Mean inter-arrival ≈ 1/rate (law of large numbers; 4000 samples
	// put the sample mean within a few percent with overwhelming odds).
	mean := s.At(n-1).Seconds() / float64(n)
	if math.Abs(mean-1/rate) > 0.15/rate {
		t.Fatalf("mean gap %.6fs, want ≈ %.6fs", mean, 1/rate)
	}
	// Deterministic per seed; different seed ⇒ different draw.
	same := Poisson(rate, n, 7)
	diff := Poisson(rate, n, 8)
	if s.At(n-1) != same.At(n-1) {
		t.Fatal("same seed produced different schedules")
	}
	if s.At(n-1) == diff.At(n-1) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("search=0.6, book=0.3,cancel=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Search != 0.6 || m.Book != 0.3 || m.Cancel != 0.1 || m.Create != 0 || m.Track != 0 {
		t.Fatalf("mix = %+v", m)
	}
	for _, bad := range []string{"", "search", "search=-1", "teleport=0.5", "search=abc"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestMixPickProportions(t *testing.T) {
	m := Mix{Search: 3, Book: 1}
	rng := rand.New(rand.NewSource(1))
	counts := map[Op]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[m.pick(rng)]++
	}
	if counts[OpCreate]+counts[OpTrack]+counts[OpCancel] != 0 {
		t.Fatalf("zero-weight ops drawn: %v", counts)
	}
	frac := float64(counts[OpSearch]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("search fraction %.3f, want ≈ 0.75", frac)
	}
}
