// Package edmstream is the public API of this repository: a Go
// implementation of EDMStream, the density-mountain stream clustering
// algorithm of Gong, Zhang and Yu ("Clustering Stream Data by Exploring
// the Evolution of Density Mountain", VLDB 2017).
//
// EDMStream summarizes nearby stream points into cluster-cells, tracks
// the nearest-higher-density dependency between cells in a DP-Tree,
// keeps low-density cells in an outlier reservoir, and extracts
// clusters as the maximal strongly dependent subtrees of the DP-Tree.
// Because every structural change of the DP-Tree is observed, the
// clusterer can also report how clusters evolve over time (emerge,
// disappear, split, merge, adjust).
//
// # Quick start
//
//	c, err := edmstream.New(edmstream.Options{Radius: 0.5})
//	if err != nil { ... }
//	for p := range pointSource {
//	    if err := c.Insert(edmstream.NewPoint(p.Coords, p.Time)); err != nil { ... }
//	}
//	snap := c.Snapshot()
//	for _, cluster := range snap.Clusters {
//	    fmt.Println(cluster.ID, len(cluster.CellIDs))
//	}
//	for _, ev := range c.Events() {
//	    fmt.Println(ev)
//	}
//
// When points arrive in groups (network reads, log segments, bursty
// sources), feed them through InsertBatch instead of point-by-point
// Insert: it produces exactly the same clustering while amortizing the
// per-point bookkeeping across each batch. Ingestion is serial: the
// whole batch is applied on the calling goroutine.
//
// # Serving queries while the stream flows
//
// The write path (Insert/InsertBatch) belongs to one owner goroutine,
// but the clusterer also maintains a lock-free read path: every
// clustering refresh atomically publishes an immutable snapshot, and
// LastSnapshot, Assign, AssignBatch, Events and Stats work off that
// published state from any number of goroutines, concurrently with
// ingestion, without blocking it. Assign classifies a point against
// the published clustering in sub-microsecond time with zero
// allocations:
//
//	go func() { // writer
//	    for batch := range source {
//	        c.InsertBatch(batch)
//	    }
//	}()
//	// any number of readers:
//	if id, ok := c.Assign(p); ok {
//	    serveFromCluster(id)
//	}
//
// The examples/ directory contains runnable programs: a minimal
// quickstart, cluster-evolution tracking on the SDS synthetic stream,
// the news-recommendation use case on a Jaccard text stream, and an
// intrusion-detection style workload.
package edmstream

import (
	"github.com/densitymountain/edmstream/internal/core"
	"github.com/densitymountain/edmstream/internal/distance"
	"github.com/densitymountain/edmstream/internal/gen"
	"github.com/densitymountain/edmstream/internal/stream"
)

// Point is a single stream element: a numeric vector or a token set,
// plus an arrival timestamp in seconds and an optional ground-truth
// label used only for evaluation.
type Point = stream.Point

// NoLabel marks a point without ground-truth class information.
const NoLabel = stream.NoLabel

// TokenSet is a set of string tokens used by text streams (for
// example, news documents compared with the Jaccard distance).
type TokenSet = distance.TokenSet

// NewTokenSet builds a TokenSet from the given tokens.
func NewTokenSet(tokens ...string) TokenSet { return distance.NewTokenSet(tokens...) }

// Decay is the exponential freshness decay model f(t) = a^{λ(t−t_i)}.
type Decay = stream.Decay

// DefaultDecay returns the paper's nominal decay setting (a = 0.998,
// λ = 1).
func DefaultDecay() Decay { return stream.DefaultDecay() }

// Snapshot is an immutable view of the clustering at one point in time.
type Snapshot = core.Snapshot

// ClusterInfo describes one cluster within a Snapshot.
type ClusterInfo = core.ClusterInfo

// Event records one cluster evolution activity (emerge, disappear,
// split, merge, adjust).
type Event = core.Event

// EventKind is the type of a cluster evolution activity.
type EventKind = core.EventKind

// Cluster evolution activity kinds.
const (
	Emerge    = core.Emerge
	Disappear = core.Disappear
	Split     = core.Split
	Merge     = core.Merge
	Adjust    = core.Adjust
)

// DecisionPoint is one cluster-cell's (density, dependent distance)
// pair on the decision graph.
type DecisionPoint = core.DecisionPoint

// TauSelector chooses the initial cluster-separation threshold τ⁰ from
// a decision graph, standing in for the paper's interactive step.
type TauSelector = core.TauSelector

// FilterMode selects which dependency-update filters are enabled.
type FilterMode = core.FilterMode

// Filter modes.
const (
	FilterNone     = core.FilterNone
	FilterDensity  = core.FilterDensity
	FilterTriangle = core.FilterTriangle
	FilterAll      = core.FilterAll
)

// IndexPolicy selects the nearest-seed index for the per-point hot
// path (grid vs linear scan). Every policy produces identical
// clustering output.
type IndexPolicy = core.IndexPolicy

// Index policies.
const (
	// IndexAuto picks the grid index for low-dimensional Euclidean
	// streams and the linear scan otherwise. The default.
	IndexAuto = core.IndexAuto
	// IndexGrid forces the grid index for numeric streams.
	IndexGrid = core.IndexGrid
	// IndexLinear forces the linear scan.
	IndexLinear = core.IndexLinear
)

// Stats exposes the clusterer's internal counters.
type Stats = core.Stats

// NewPoint builds a numeric stream point arriving at the given time (in
// seconds).
func NewPoint(vector []float64, at float64) Point {
	return Point{Vector: vector, Time: at, Label: NoLabel}
}

// NewLabeledPoint builds a numeric stream point with a ground-truth
// label, used when evaluating cluster quality.
func NewLabeledPoint(vector []float64, at float64, label int) Point {
	return Point{Vector: vector, Time: at, Label: label}
}

// NewTextPoint builds a text stream point (a token set) arriving at the
// given time.
func NewTextPoint(tokens TokenSet, at float64) Point {
	return Point{Tokens: tokens, Time: at, Label: NoLabel}
}

// SuggestRadius returns the q-quantile (e.g. 0.01 for 1%) of the
// pairwise distances of a sample of points — the rule the paper uses to
// choose the cluster-cell radius r.
func SuggestRadius(points []Point, q float64) (float64, error) {
	return gen.SuggestRadius(points, q, 0)
}
