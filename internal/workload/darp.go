package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"xar/internal/geo"
)

// This file loads Cordeau–Laporte DARP benchmark instances (the a/b
// series used throughout the dial-a-ride literature) as trip streams, so
// replays can run on the standard academic instances next to the
// synthetic NYC-shaped generator.
//
// Instance layout:
//
//	|K| n maxRouteDuration Q maxRideTime
//	id x y serviceDur loadChange twEarly twLate     (depot, id 0)
//	... 2n request rows: pickups id 1..n, dropoffs id n+1..2n
//	[optional terminal depot row, id 2n+1]
//
// Coordinates are planar (typically [-10,10] "Cordeau units"); times are
// minutes. Request i becomes one Trip: pickup row i's coordinates and
// dropoff row n+i's, with the request time taken from whichever side
// carries the tight time window (outbound requests constrain the
// pickup, inbound ones the dropoff — the other side spans the whole
// horizon).

// DARPInstance is a parsed instance: the header and the trips it
// induces. Trips preserve instance order (request 1 first) and carry
// IDs 1..n matching the instance's pickup node IDs.
type DARPInstance struct {
	Vehicles    int     // |K|
	Requests    int     // n
	MaxRouteMin float64 // route-duration bound, minutes
	Capacity    int     // Q
	MaxRideMin  float64 // per-passenger ride-time bound, minutes
	Trips       []Trip
}

// The names of the header's and a row's fields, for error messages.
var (
	darpHeaderFields = [5]string{"vehicles", "requests", "max route duration", "capacity", "max ride time"}
	darpRowFields    = [7]string{"id", "x", "y", "service duration", "load change", "window early", "window late"}
)

// darpNode is one parsed instance row.
type darpNode struct {
	x, y        float64
	early, late float64
}

// ReadDARP parses a Cordeau-format instance. Planar coordinates pass
// through as Lat=y, Lng=x (see MapToBBox for projecting them into a
// city's geographic frame); time windows convert minutes → seconds to
// match Trip.RequestTime.
func ReadDARP(r io.Reader) (*DARPInstance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	fields, err := nextDARPRow(sc)
	if err != nil {
		return nil, fmt.Errorf("workload: darp header: %w", err)
	}
	if len(fields) < 5 {
		return nil, fmt.Errorf("workload: darp header has %d fields, want 5", len(fields))
	}
	inst := &DARPInstance{}
	hdr := make([]float64, 5)
	for i := 0; i < 5; i++ {
		hdr[i], err = parseDARPNumber(fields[i])
		if err != nil {
			return nil, fmt.Errorf("workload: darp header field %d (%s): %w", i, darpHeaderFields[i], err)
		}
	}
	inst.Vehicles = int(hdr[0])
	inst.Requests = int(hdr[1])
	inst.MaxRouteMin = hdr[2]
	inst.Capacity = int(hdr[3])
	inst.MaxRideMin = hdr[4]
	n := inst.Requests
	if inst.Vehicles <= 0 || n <= 0 || inst.Capacity <= 0 {
		return nil, fmt.Errorf("workload: darp header %v not positive", fields[:5])
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("workload: darp instance claims %d requests", n)
	}

	// Depot + 2n request rows; a trailing depot row is optional.
	nodes := make(map[int]darpNode, 2*n+2)
	for {
		fields, err := nextDARPRow(sc)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(fields) < 7 {
			return nil, fmt.Errorf("workload: darp row %q has %d fields, want 7", strings.Join(fields, " "), len(fields))
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("workload: darp node id %q: %w", fields[0], err)
		}
		if id < 0 || id > 2*n+1 {
			return nil, fmt.Errorf("workload: darp node id %d out of range [0, %d]", id, 2*n+1)
		}
		if _, dup := nodes[id]; dup {
			return nil, fmt.Errorf("workload: duplicate darp node id %d", id)
		}
		var v [7]float64
		for i := 1; i < 7; i++ {
			v[i], err = parseDARPNumber(fields[i])
			if err != nil {
				return nil, fmt.Errorf("workload: darp node %d field %d (%s): %w", id, i, darpRowFields[i], err)
			}
		}
		if v[6] < v[5] {
			return nil, fmt.Errorf("workload: darp node %d window [%v, %v] inverted", id, v[5], v[6])
		}
		nodes[id] = darpNode{x: v[1], y: v[2], early: v[5], late: v[6]}
	}

	inst.Trips = make([]Trip, 0, n)
	for i := 1; i <= n; i++ {
		pu, ok := nodes[i]
		if !ok {
			return nil, fmt.Errorf("workload: darp pickup node %d missing", i)
		}
		do, ok := nodes[n+i]
		if !ok {
			return nil, fmt.Errorf("workload: darp dropoff node %d missing", n+i)
		}
		// The constrained side carries the narrower window; its early
		// edge (minutes) is the request time.
		reqMin := pu.early
		if do.late-do.early < pu.late-pu.early {
			reqMin = do.early
		}
		if reqMin < 0 {
			reqMin = 0
		}
		inst.Trips = append(inst.Trips, Trip{
			ID:          i,
			Pickup:      geo.Point{Lat: pu.y, Lng: pu.x},
			Dropoff:     geo.Point{Lat: do.y, Lng: do.x},
			RequestTime: reqMin * 60,
		})
	}
	return inst, nil
}

// parseDARPNumber parses one numeric field and refuses NaN and ±Inf,
// which strconv.ParseFloat accepts: a NaN window passes the inversion
// check, and one non-finite coordinate spoils the bounding square
// MapToBBox projects every trip through.
func parseDARPNumber(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%q is not finite", s)
	}
	return v, err
}

// nextDARPRow returns the next non-empty, non-comment whitespace-split
// line, or io.EOF.
func nextDARPRow(sc *bufio.Scanner) ([]string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return strings.Fields(line), nil
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: darp scan: %w", err)
	}
	return nil, io.EOF
}

// WriteDARP renders the instance back in Cordeau format (depot at the
// coordinate centroid, windows reconstructed from the trips). ReadDARP ∘
// WriteDARP preserves request count, order, coordinates, and request
// times — the round-trip property the tests pin down.
func WriteDARP(w io.Writer, inst *DARPInstance) error {
	n := len(inst.Trips)
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d %g %d %g\n",
		inst.Vehicles, n, inst.MaxRouteMin, inst.Capacity, inst.MaxRideMin); err != nil {
		return err
	}
	var cx, cy float64
	for _, t := range inst.Trips {
		cx += t.Pickup.Lng + t.Dropoff.Lng
		cy += t.Pickup.Lat + t.Dropoff.Lat
	}
	if n > 0 {
		cx /= float64(2 * n)
		cy /= float64(2 * n)
	}
	horizon := inst.MaxRouteMin
	for _, t := range inst.Trips {
		if m := t.RequestTime / 60; m > horizon {
			horizon = m
		}
	}
	row := func(id int, x, y, early, late float64) error {
		_, err := fmt.Fprintf(bw, "%d %g %g 0 %d %g %g\n", id, x, y, loadOf(id, n), early, late)
		return err
	}
	if err := row(0, cx, cy, 0, horizon); err != nil {
		return err
	}
	for i, t := range inst.Trips {
		// Emit the window on the pickup side; ReadDARP's narrower-window
		// rule then recovers RequestTime from it.
		if err := row(i+1, t.Pickup.Lng, t.Pickup.Lat, t.RequestTime/60, t.RequestTime/60); err != nil {
			return err
		}
	}
	for i, t := range inst.Trips {
		if err := row(n+i+1, t.Dropoff.Lng, t.Dropoff.Lat, 0, horizon); err != nil {
			return err
		}
	}
	if err := row(2*n+1, cx, cy, 0, horizon); err != nil {
		return err
	}
	return bw.Flush()
}

// loadOf is the conventional load-change column: +1 at pickups, -1 at
// dropoffs, 0 at depots.
func loadOf(id, n int) int {
	switch {
	case id >= 1 && id <= n:
		return 1
	case id > n && id <= 2*n:
		return -1
	default:
		return 0
	}
}

// MapToBBox affinely maps the instance's planar coordinates into box, so
// Cordeau-unit instances can drive a generated city: the instance's
// bounding square maps onto the city's bounding box, preserving request
// order and times. Degenerate axes collapse to the box center.
func (inst *DARPInstance) MapToBBox(box geo.BBox) []Trip {
	if len(inst.Trips) == 0 {
		return nil
	}
	minX, maxX := inst.Trips[0].Pickup.Lng, inst.Trips[0].Pickup.Lng
	minY, maxY := inst.Trips[0].Pickup.Lat, inst.Trips[0].Pickup.Lat
	grow := func(p geo.Point) {
		minX, maxX = min(minX, p.Lng), max(maxX, p.Lng)
		minY, maxY = min(minY, p.Lat), max(maxY, p.Lat)
	}
	for _, t := range inst.Trips {
		grow(t.Pickup)
		grow(t.Dropoff)
	}
	proj := func(p geo.Point) geo.Point {
		fx, fy := 0.5, 0.5
		if maxX > minX {
			fx = (p.Lng - minX) / (maxX - minX)
		}
		if maxY > minY {
			fy = (p.Lat - minY) / (maxY - minY)
		}
		return geo.Point{
			Lat: box.MinLat + fy*(box.MaxLat-box.MinLat),
			Lng: box.MinLng + fx*(box.MaxLng-box.MinLng),
		}
	}
	out := make([]Trip, len(inst.Trips))
	for i, t := range inst.Trips {
		out[i] = Trip{
			ID:          t.ID,
			Pickup:      proj(t.Pickup),
			Dropoff:     proj(t.Dropoff),
			RequestTime: t.RequestTime,
		}
	}
	return out
}
