package transit

import (
	"fmt"

	"xar/internal/geo"
	"xar/internal/roadnet"
)

// The synthetic network mimics Manhattan: a handful of north–south
// subway trunks with ~700 m stop spacing and frequent service, plus
// crosstown buses with ~450 m stop spacing and slower, sparser service.
const (
	// subwayLineSpacing is the east–west distance between subway trunks
	// (meters); busLineSpacing the north–south distance between
	// crosstown bus lines.
	subwayLineSpacing = 1400.0
	busLineSpacing    = 900.0
	// subwayStopSpacing and busStopSpacing set stop density along lines.
	subwayStopSpacing = 700.0
	busStopSpacing    = 450.0
	// Speeds in m/s (subway ~43 km/h, bus ~16 km/h surface speed) and
	// headways in seconds (6 and 10 minutes).
	subwaySpeed, busSpeed     = 12.0, 4.5
	subwayHeadway, busHeadway = 360.0, 600.0
	// serviceFirst and serviceLast bound the service window (seconds of
	// day): 05:00 to midnight.
	serviceFirst, serviceLast = 5 * 3600.0, 24 * 3600.0
)

// Generate lays a synthetic transit network over a generated city: subway
// trunks run north–south, buses run east–west, covering the city's
// bounding box. Deterministic in its inputs.
func Generate(city *roadnet.City) (*Network, error) {
	box := city.Graph.BBox()
	width := box.WidthMeters()
	height := box.HeightMeters()
	origin := geo.Point{Lat: box.MinLat, Lng: box.MinLng}

	var stops []Stop
	addStop := func(p geo.Point, name string) StopID {
		id := StopID(len(stops))
		stops = append(stops, Stop{ID: id, Name: name, Point: p})
		return id
	}

	var routes []Route
	routeID := 0
	addLine := func(name string, mode Mode, line []StopID, speed, headway float64) error {
		fwd, err := NewRoute(routeID, name+" north/east", mode, line, stops, speed, headway, serviceFirst, serviceLast, 20)
		if err != nil {
			return err
		}
		routeID++
		rev := make([]StopID, len(line))
		for i, s := range line {
			rev[len(line)-1-i] = s
		}
		bwd, err := NewRoute(routeID, name+" south/west", mode, rev, stops, speed, headway, serviceFirst, serviceLast, 20)
		if err != nil {
			return err
		}
		routeID++
		routes = append(routes, fwd, bwd)
		return nil
	}

	// Subway trunks: north–south lines every subwayLineSpacing meters.
	nSubway := int(width/subwayLineSpacing) + 1
	for l := 0; l < nSubway; l++ {
		east := float64(l) * subwayLineSpacing
		if east > width {
			break
		}
		var line []StopID
		for n := 0.0; n <= height; n += subwayStopSpacing {
			p := geo.Destination(geo.Destination(origin, 90, east), 0, n)
			line = append(line, addStop(p, fmt.Sprintf("Sub%d/%d", l, len(line))))
		}
		if len(line) >= 2 {
			if err := addLine(fmt.Sprintf("Subway-%d", l), ModeSubway, line, subwaySpeed, subwayHeadway); err != nil {
				return nil, err
			}
		}
	}

	// Crosstown buses: east–west lines every busLineSpacing meters.
	nBus := int(height/busLineSpacing) + 1
	for l := 0; l < nBus; l++ {
		north := float64(l) * busLineSpacing
		if north > height {
			break
		}
		var line []StopID
		for eMeters := 0.0; eMeters <= width; eMeters += busStopSpacing {
			p := geo.Destination(geo.Destination(origin, 0, north), 90, eMeters)
			line = append(line, addStop(p, fmt.Sprintf("Bus%d/%d", l, len(line))))
		}
		if len(line) >= 2 {
			if err := addLine(fmt.Sprintf("Bus-%d", l), ModeBus, line, busSpeed, busHeadway); err != nil {
				return nil, err
			}
		}
	}

	if len(routes) == 0 {
		return nil, fmt.Errorf("transit: city too small for any transit line")
	}
	return NewNetwork(stops, routes)
}
