package core

import (
	"encoding/json"
	"fmt"

	"xar/internal/index"
)

// RouteGeoJSON renders a ride's current route and via-points as a
// GeoJSON FeatureCollection — a LineString for the route plus a Point
// feature per via-point — ready for any web map. Client apps poll this
// to draw the vehicle's path and stops.
func (e *Engine) RouteGeoJSON(id index.RideID) ([]byte, error) {
	e.ix.RLock()
	defer e.ix.RUnlock()

	r := e.ix.Ix.Ride(id)
	if r == nil {
		return nil, ErrUnknownRide
	}
	g := e.disc.City().Graph

	coords := make([][2]float64, len(r.Route))
	for i, n := range r.Route {
		p := g.Point(n)
		coords[i] = [2]float64{p.Lng, p.Lat} // GeoJSON is lng,lat
	}

	type feature struct {
		Type       string                 `json:"type"`
		Geometry   map[string]interface{} `json:"geometry"`
		Properties map[string]interface{} `json:"properties"`
	}
	features := []feature{{
		Type: "Feature",
		Geometry: map[string]interface{}{
			"type":        "LineString",
			"coordinates": coords,
		},
		Properties: map[string]interface{}{
			"ride_id":         int64(r.ID),
			"seats_available": r.SeatsAvail,
			"detour_budget_m": r.DetourLimit,
			"progress_index":  r.Progress,
		},
	}}
	for i, v := range r.Via {
		p := g.Point(v.Node)
		features = append(features, feature{
			Type: "Feature",
			Geometry: map[string]interface{}{
				"type":        "Point",
				"coordinates": [2]float64{p.Lng, p.Lat},
			},
			Properties: map[string]interface{}{
				"kind": v.Kind.String(),
				"eta":  v.ETA,
				"seq":  i,
			},
		})
	}
	doc := map[string]interface{}{
		"type":     "FeatureCollection",
		"features": features,
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("xar: geojson encode: %w", err)
	}
	return out, nil
}
