package workload

import (
	"math"
	"testing"

	"xar/internal/geo"
	"xar/internal/roadnet"
)

func testCity(t testing.TB) *roadnet.City {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(30, 16, 42))
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func TestGenerateValidation(t *testing.T) {
	city := testCity(t)
	bad := DefaultConfig(0, 1)
	if _, err := Generate(city, bad); err == nil {
		t.Fatal("zero trips must be rejected")
	}
	bad = DefaultConfig(10, 1)
	bad.MaxTripDist = minTripDist / 2
	if _, err := Generate(city, bad); err == nil {
		t.Fatal("inverted distance bounds must be rejected")
	}
	bad = DefaultConfig(10, 1)
	bad.UniformFrac = 1.5
	if _, err := Generate(city, bad); err == nil {
		t.Fatal("UniformFrac > 1 must be rejected")
	}
	bad = DefaultConfig(10, 1)
	bad.StartHour = 10
	bad.EndHour = 9
	if _, err := Generate(city, bad); err == nil {
		t.Fatal("inverted hour window must be rejected")
	}
	// A 2×2 lattice's diagonal (≈ 290 m) is shorter than minTripDist.
	tiny, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(tiny, DefaultConfig(10, 1)); err == nil {
		t.Fatal("min distance beyond the city must be rejected")
	}
}

func TestGenerateBasicProperties(t *testing.T) {
	city := testCity(t)
	cfg := DefaultConfig(2000, 7)
	trips, err := Generate(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trips) != 2000 {
		t.Fatalf("generated %d trips", len(trips))
	}
	box := city.Graph.BBox()
	for i, tr := range trips {
		d := geo.Haversine(tr.Pickup, tr.Dropoff)
		if d < minTripDist || d > cfg.MaxTripDist {
			t.Fatalf("trip %d distance %.0f outside [%v, %v]", i, d, minTripDist, cfg.MaxTripDist)
		}
		if !box.Contains(tr.Pickup) || !box.Contains(tr.Dropoff) {
			t.Fatalf("trip %d endpoint outside the city", i)
		}
		if tr.RequestTime < 0 || tr.RequestTime >= 24*3600 {
			t.Fatalf("trip %d time %v outside the day", i, tr.RequestTime)
		}
		if i > 0 && tr.RequestTime < trips[i-1].RequestTime {
			t.Fatal("trips not sorted by time")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	city := testCity(t)
	a, err := Generate(city, DefaultConfig(500, 9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(city, DefaultConfig(500, 9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trip %d differs across identical seeds", i)
		}
	}
	c, err := Generate(city, DefaultConfig(500, 10))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].Pickup == c[i].Pickup {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestHourlyProfileShapesDemand(t *testing.T) {
	city := testCity(t)
	trips, err := Generate(city, DefaultConfig(20000, 3))
	if err != nil {
		t.Fatal(err)
	}
	var perHour [24]int
	for _, tr := range trips {
		perHour[int(tr.RequestTime/3600)%24]++
	}
	// Peak hours (18–19) must comfortably exceed the dead of night (3–4).
	if perHour[18] < 3*perHour[3] {
		t.Fatalf("18h=%d vs 3h=%d; time-of-day profile not applied", perHour[18], perHour[3])
	}
}

func TestHourWindowRestriction(t *testing.T) {
	city := testCity(t)
	cfg := DefaultConfig(1000, 4)
	cfg.StartHour = 6
	cfg.EndHour = 12
	trips, err := Generate(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trips {
		h := tr.RequestTime / 3600
		if h < 6 || h >= 13 {
			t.Fatalf("trip at hour %.2f outside [6, 12]", h)
		}
	}
}

func TestHotspotConcentration(t *testing.T) {
	city := testCity(t)
	hot := midtownHotspots(city)
	cfgHot := DefaultConfig(3000, 5)
	cfgHot.UniformFrac = 0
	cfgFlat := DefaultConfig(3000, 5)
	cfgFlat.UniformFrac = 1

	hotTrips, err := Generate(city, cfgHot)
	if err != nil {
		t.Fatal(err)
	}
	flatTrips, err := Generate(city, cfgFlat)
	if err != nil {
		t.Fatal(err)
	}
	meanDistToHotspot := func(trips []Trip) float64 {
		var s float64
		for _, tr := range trips {
			best := math.Inf(1)
			for _, h := range hot {
				if d := geo.Haversine(tr.Pickup, h.center); d < best {
					best = d
				}
			}
			s += best
		}
		return s / float64(len(trips))
	}
	if meanDistToHotspot(hotTrips) >= meanDistToHotspot(flatTrips) {
		t.Fatal("hotspot demand not more concentrated than uniform demand")
	}
}

func TestSummarize(t *testing.T) {
	city := testCity(t)
	trips, err := Generate(city, DefaultConfig(5000, 6))
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(trips)
	if st.N != 5000 {
		t.Fatalf("N = %d", st.N)
	}
	if st.MedianDist < 800 || st.MedianDist > 12000 {
		t.Fatalf("median distance %.0f outside bounds", st.MedianDist)
	}
	if st.MeanDist <= 0 {
		t.Fatal("non-positive mean distance")
	}
	if st.PeakHourFrac <= 0 || st.PeakHourFrac > 1 {
		t.Fatalf("peak fraction %v", st.PeakHourFrac)
	}
	if empty := Summarize(nil); empty.N != 0 {
		t.Fatal("empty summary")
	}
}
