package discretize

import (
	"encoding/gob"
	"fmt"
	"io"

	"xar/internal/grid"
	"xar/internal/landmark"
	"xar/internal/roadnet"
)

// discSnapshot is the gob wire format of a Discretization. Everything
// the expensive pre-processing computed (landmark Dijkstras, clustering,
// node assignments) is stored; the grid system, the cluster distances and
// the per-grid table are derived from it and rebuilt on load.
type discSnapshot struct {
	Version          int
	GraphFingerprint uint64
	Cfg              Config
	Landmarks        []landmark.Landmark
	LandmarkCluster  []int
	LMDist           [][]float32
	NodeLandmark     []int32
	NodeLandmarkDist []float32
	Epsilon          float64
}

const discSnapshotVersion = 1

// Save serializes the discretization. The artifact embeds the road
// graph's fingerprint; Load verifies it against the graph it is given.
func (d *Discretization) Save(w io.Writer) error {
	snap := discSnapshot{
		Version:          discSnapshotVersion,
		GraphFingerprint: d.city.Graph.Fingerprint(),
		Cfg:              d.cfg,
		Landmarks:        d.Landmarks,
		LandmarkCluster:  d.landmarkCluster,
		LMDist:           d.lmDist,
		NodeLandmark:     d.nodeLandmark,
		NodeLandmarkDist: d.nodeLandmarkDist,
		Epsilon:          d.epsilon,
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Load deserializes a discretization previously written by Save and
// re-binds it to city. The city must be the one the artifact was built
// on (checked by fingerprint).
func Load(r io.Reader, city *roadnet.City) (*Discretization, error) {
	var snap discSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("discretize: decode: %w", err)
	}
	if snap.Version != discSnapshotVersion {
		return nil, fmt.Errorf("discretize: unsupported snapshot version %d", snap.Version)
	}
	if got := city.Graph.Fingerprint(); got != snap.GraphFingerprint {
		return nil, fmt.Errorf("discretize: snapshot built on a different road graph (fingerprint %x, graph %x)",
			snap.GraphFingerprint, got)
	}
	if err := snap.Cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(snap.Landmarks)
	if len(snap.LandmarkCluster) != n || len(snap.LMDist) != n {
		return nil, fmt.Errorf("discretize: corrupt snapshot: %d landmarks, %d assignments, %d distance rows",
			n, len(snap.LandmarkCluster), len(snap.LMDist))
	}
	for i, row := range snap.LMDist {
		if len(row) != n {
			return nil, fmt.Errorf("discretize: corrupt snapshot: distance row %d has %d entries", i, len(row))
		}
	}
	if len(snap.NodeLandmark) != city.Graph.NumNodes() || len(snap.NodeLandmarkDist) != city.Graph.NumNodes() {
		return nil, fmt.Errorf("discretize: corrupt snapshot: node tables sized %d/%d for %d nodes",
			len(snap.NodeLandmark), len(snap.NodeLandmarkDist), city.Graph.NumNodes())
	}

	gs, err := grid.NewSystem(city.Graph.BBox().Pad(snap.Cfg.MaxWalk+snap.Cfg.GridCellSize), snap.Cfg.GridCellSize)
	if err != nil {
		return nil, err
	}
	d := &Discretization{
		cfg:              snap.Cfg,
		city:             city,
		Grid:             gs,
		Landmarks:        snap.Landmarks,
		landmarkCluster:  snap.LandmarkCluster,
		lmDist:           snap.LMDist,
		nodeLandmark:     snap.NodeLandmark,
		nodeLandmarkDist: snap.NodeLandmarkDist,
		epsilon:          snap.Epsilon,
		lmIndex: newPointBuckets(landmark.Points(snap.Landmarks),
			city.Graph.BBox().Pad(snap.Cfg.MaxWalk+snap.Cfg.GridCellSize), snap.Cfg.MaxWalk),
	}
	// Rebuild cluster membership lists from the assignment.
	maxC := -1
	for lm, c := range snap.LandmarkCluster {
		if c < 0 {
			return nil, fmt.Errorf("discretize: corrupt snapshot: landmark %d unassigned", lm)
		}
		if c > maxC {
			maxC = c
		}
	}
	d.Clusters = make([]Cluster, maxC+1)
	for c := range d.Clusters {
		d.Clusters[c].ID = c
	}
	for lm, c := range snap.LandmarkCluster {
		d.Clusters[c].Landmarks = append(d.Clusters[c].Landmarks, lm)
	}
	for c := range d.Clusters {
		if len(d.Clusters[c].Landmarks) == 0 {
			return nil, fmt.Errorf("discretize: corrupt snapshot: cluster %d empty", c)
		}
	}
	d.computeClusterDistances()
	d.buildGridTable()
	return d, nil
}
