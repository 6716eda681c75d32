package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadDARP checks the instance parser never panics, that every
// instance it accepts has finite coordinates and request times, and
// that it survives a write/read round trip with its trip stream intact.
func FuzzReadDARP(f *testing.F) {
	f.Add(sampleDARP)
	f.Add("1 1 480 3 30\n0 0 0 0 0 0 480\n1 -1 2 3 1 60 75\n2 3 -4 3 -1 0 480\n3 0 0 0 0 0 480\n")
	f.Add("1 1 480 3 30\n1 -1 2 3 1 60 75\n2 3 -4 3 -1 0 480\n")
	f.Add("# comment\n\n2 3 480 3 30\n")
	f.Add("")
	f.Add("2 3 480\n")
	f.Add("1 1 480 3 30\n1 0 0 3 1 50 10\n")
	f.Add("1 1 480 3 30\n1 NaN 2 3 1 60 75\n2 3 -4 3 -1 0 480\n")
	f.Fuzz(func(t *testing.T, s string) {
		inst, err := ReadDARP(strings.NewReader(s))
		if err != nil {
			return
		}
		if len(inst.Trips) != inst.Requests {
			t.Fatalf("accepted instance with %d trips for n=%d", len(inst.Trips), inst.Requests)
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		for _, tr := range inst.Trips {
			if !finite(tr.Pickup.Lat) || !finite(tr.Pickup.Lng) || !finite(tr.Dropoff.Lat) ||
				!finite(tr.Dropoff.Lng) || !finite(tr.RequestTime) {
				t.Fatalf("accepted trip %d with a non-finite field: %+v", tr.ID, tr)
			}
		}
		var buf bytes.Buffer
		if err := WriteDARP(&buf, inst); err != nil {
			t.Fatalf("accepted instance failed to write: %v", err)
		}
		back, err := ReadDARP(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back.Trips) != len(inst.Trips) {
			t.Fatalf("round trip lost trips: %d vs %d", len(back.Trips), len(inst.Trips))
		}
		for i := range inst.Trips {
			if back.Trips[i].ID != inst.Trips[i].ID {
				t.Fatalf("trip %d order changed", i)
			}
		}
	})
}
