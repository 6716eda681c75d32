package workload

import (
	"bytes"
	"strings"
	"testing"

	"xar/internal/geo"
)

// sampleDARP is a 3-request instance in Cordeau layout: depot, pickups
// 1..3, dropoffs 4..6, terminal depot. Requests 1 and 3 are outbound
// (tight pickup window), request 2 inbound (tight dropoff window).
const sampleDARP = `2 3 480 3 30
0 0.0 0.0 0 0 0 480
1 -1.5 2.0 3 1 60 75
2 4.0 -2.5 3 1 0 480
3 1.0 1.0 3 1 200 215
4 3.5 3.5 3 -1 0 480
5 -4.0 0.5 3 -1 120 135
6 2.0 -3.0 3 -1 0 480
7 0.0 0.0 0 0 0 480
`

func TestReadDARP(t *testing.T) {
	inst, err := ReadDARP(strings.NewReader(sampleDARP))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Vehicles != 2 || inst.Requests != 3 || inst.Capacity != 3 {
		t.Fatalf("header: %+v", inst)
	}
	if inst.MaxRouteMin != 480 || inst.MaxRideMin != 30 {
		t.Fatalf("bounds: %+v", inst)
	}
	if len(inst.Trips) != 3 {
		t.Fatalf("%d trips, want 3", len(inst.Trips))
	}
	// Instance order and IDs preserved.
	for i, tr := range inst.Trips {
		if tr.ID != i+1 {
			t.Fatalf("trip %d has ID %d", i, tr.ID)
		}
	}
	// Request 1: outbound, time = pickup early (60 min).
	if got := inst.Trips[0].RequestTime; got != 60*60 {
		t.Fatalf("trip 1 request time %v, want 3600", got)
	}
	// Request 2: inbound, time = dropoff early (120 min).
	if got := inst.Trips[1].RequestTime; got != 120*60 {
		t.Fatalf("trip 2 request time %v, want 7200", got)
	}
	// Coordinates: Lat=y, Lng=x.
	if p := inst.Trips[0].Pickup; p.Lng != -1.5 || p.Lat != 2.0 {
		t.Fatalf("trip 1 pickup %+v", p)
	}
	if d := inst.Trips[2].Dropoff; d.Lng != 2.0 || d.Lat != -3.0 {
		t.Fatalf("trip 3 dropoff %+v", d)
	}
}

func TestReadDARPRejects(t *testing.T) {
	for name, in := range map[string]string{
		"empty":          "",
		"short header":   "2 3 480\n",
		"zero requests":  "2 0 480 3 30\n",
		"missing pickup": "1 1 480 3 30\n0 0 0 0 0 0 480\n2 1 1 3 -1 0 480\n",
		"short row":      "1 1 480 3 30\n0 0 0 0 0\n",
		"bad id":         "1 1 480 3 30\nx 0 0 0 0 0 480\n",
		"id range":       "1 1 480 3 30\n9 0 0 0 0 0 480\n",
		"dup id":         "1 1 480 3 30\n1 0 0 3 1 0 10\n1 1 1 3 1 0 10\n",
		"inverted tw":    "1 1 480 3 30\n1 0 0 3 1 50 10\n2 1 1 3 -1 0 480\n",
	} {
		if _, err := ReadDARP(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadDARPRejectsNonFinite: strconv.ParseFloat reads "NaN" and
// "Inf", so the parser must refuse them itself, naming where it found
// one. A NaN window also slips past the inversion check, and a single
// non-finite coordinate ruins MapToBBox for every trip.
func TestReadDARPRejectsNonFinite(t *testing.T) {
	const (
		head = "1 1 480 3 30\n"
		pu   = "1 0 0 3 1 60 75\n"
		do   = "2 1 1 3 -1 0 480\n"
	)
	for _, tc := range []struct{ name, in, want string }{
		{"NaN header", "1 1 NaN 3 30\n" + pu + do, "header field 2 (max route duration)"},
		{"Inf header", "1 1 480 3 +Inf\n" + pu + do, "header field 4 (max ride time)"},
		{"NaN pickup x", head + "1 NaN 0 3 1 60 75\n" + do, "node 1 field 1 (x)"},
		{"Inf dropoff y", head + pu + "2 1 +Inf 3 -1 0 480\n", "node 2 field 2 (y)"},
		{"NaN early", head + "1 0 0 3 1 NaN 75\n" + do, "node 1 field 5 (window early)"},
		{"NaN late", head + pu + "2 1 1 3 -1 0 nan\n", "node 2 field 6 (window late)"},
		{"-Inf service", head + pu + "2 1 1 -inf -1 0 480\n", "node 2 field 3 (service duration)"},
		{"NaN depot load", head + "0 0 0 0 NaN 0 480\n" + pu + do, "node 0 field 4 (load change)"},
	} {
		_, err := ReadDARP(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestDARPRoundTrip pins the loader's replay contract: write → read
// preserves request count, ordering, coordinates, and request times, so
// an instance-driven load run is reproducible from its exported form.
func TestDARPRoundTrip(t *testing.T) {
	inst, err := ReadDARP(strings.NewReader(sampleDARP))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDARP(&buf, inst); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDARP(&buf)
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, buf.String())
	}
	if len(back.Trips) != len(inst.Trips) {
		t.Fatalf("round trip: %d trips, want %d", len(back.Trips), len(inst.Trips))
	}
	for i := range inst.Trips {
		a, b := inst.Trips[i], back.Trips[i]
		if a.ID != b.ID || a.Pickup != b.Pickup || a.Dropoff != b.Dropoff || a.RequestTime != b.RequestTime {
			t.Fatalf("trip %d changed: %+v vs %+v", i, a, b)
		}
	}
	if back.Vehicles != inst.Vehicles || back.Capacity != inst.Capacity {
		t.Fatalf("header changed: %+v vs %+v", back, inst)
	}
}

func TestMapToBBox(t *testing.T) {
	inst, err := ReadDARP(strings.NewReader(sampleDARP))
	if err != nil {
		t.Fatal(err)
	}
	box := geo.BBox{MinLat: 40.70, MinLng: -74.02, MaxLat: 40.80, MaxLng: -73.93}
	trips := inst.MapToBBox(box)
	if len(trips) != len(inst.Trips) {
		t.Fatalf("%d trips", len(trips))
	}
	for i, tr := range trips {
		for _, p := range []geo.Point{tr.Pickup, tr.Dropoff} {
			if !box.Contains(p) {
				t.Fatalf("trip %d endpoint %+v outside box", i, p)
			}
		}
		if tr.RequestTime != inst.Trips[i].RequestTime || tr.ID != inst.Trips[i].ID {
			t.Fatalf("trip %d identity changed", i)
		}
	}
	// The extreme x (4.0, request 2 pickup) must land on the box's max
	// lng edge, the extreme y (3.5, request 1 dropoff) on the max lat.
	if got := trips[1].Pickup.Lng; got != box.MaxLng {
		t.Fatalf("max-x pickup mapped to lng %v, want %v", got, box.MaxLng)
	}
	if got := trips[0].Dropoff.Lat; got != box.MaxLat {
		t.Fatalf("max-y dropoff mapped to lat %v, want %v", got, box.MaxLat)
	}
}
