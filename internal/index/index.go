// Package index provides the nearest-seed indexes behind EDMStream's
// per-point hot path. Every arriving point must find the cluster-cell
// whose seed is nearest (Sec. 4.1 of the paper); with thousands of
// live cells a linear scan per point dominates the insert cost, so
// this package offers a uniform grid hash over seed coordinates that
// answers radius-bounded nearest-seed probes by visiting only the
// neighboring buckets, plus a linear-scan fallback for streams the
// grid cannot bucket (Jaccard/token-set streams, and high-dimensional
// Euclidean streams where 3^d neighborhood probes stop paying off).
//
// Both implementations answer queries exactly — they differ only in
// which candidates they have to touch — so the clustering output is
// identical whichever index is selected (internal/core's equivalence
// tests assert this property).
package index

import "github.com/densitymountain/edmstream/internal/stream"

// SeedIndex indexes cluster-cell seed points by cell ID and answers
// the two nearest-neighbor queries the core algorithm needs. Seeds are
// immutable for the lifetime of a cell, so there is no update
// operation: cells are inserted once and removed once.
//
// Ties in distance are broken toward the lowest cell ID by every
// implementation, which keeps the algorithm's output independent of
// the index choice.
type SeedIndex interface {
	// Len returns the number of indexed seeds.
	Len() int
	// Insert adds the seed p of cell id to the index.
	Insert(id int64, p stream.Point)
	// Remove deletes cell id, whose seed is p, from the index.
	Remove(id int64, p stream.Point)
	// NearestWithin returns the indexed seed nearest to p among those
	// at distance at most r, or ok == false when no seed is that
	// close. onDist, when non-nil, is invoked with every (id,
	// distance) pair the index measures during the probe; the core
	// algorithm uses it to stamp distances onto cells for the
	// triangle-inequality filter (Theorem 2).
	NearestWithin(p stream.Point, r float64, onDist func(id int64, d float64)) (id int64, d float64, ok bool)
	// NearestWhere returns the indexed seed nearest to p among those
	// whose ID satisfies pred (a nil pred accepts every seed), or
	// ok == false when no admissible seed exists. It is unbounded in
	// distance and backs dependency searches (nearest cell with
	// higher density).
	NearestWhere(p stream.Point, pred func(id int64) bool) (id int64, d float64, ok bool)
	// Kind returns a short identifier ("grid", "linear") used in
	// stats and benchmark reports.
	Kind() string
}
