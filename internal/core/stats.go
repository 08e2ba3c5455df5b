package core

import "time"

// Stats exposes the internal counters EDMStream maintains while
// processing a stream. They back the Fig. 11 experiment (accumulated
// dependency-update time with and without the filters) and the
// reservoir-size experiment of Fig. 16.
type Stats struct {
	// Points is the number of points processed.
	Points int64
	// CellsCreated is the number of cluster-cells ever created.
	CellsCreated int64
	// ActiveCells and InactiveCells are the current DP-Tree and
	// reservoir sizes.
	ActiveCells, InactiveCells int
	// Promotions counts reservoir → DP-Tree moves, Demotions the
	// reverse, Deletions the outdated cells removed from the reservoir.
	Promotions, Demotions, Deletions int64
	// DependencyCandidates is the number of (absorbing cell, other
	// cell) pairs examined during dependency updates; FilteredByDensity
	// and FilteredByTriangle count the pairs skipped by Theorem 1 and
	// Theorem 2 respectively; DependencyRelinks counts the pairs that
	// actually changed a dependency link.
	DependencyCandidates, FilteredByDensity, FilteredByTriangle, DependencyRelinks int64
	// DependencyUpdateTime is the accumulated wall-clock time spent in
	// dependency maintenance (the quantity plotted in Fig. 11). Only
	// collected when Config.DetailedStats is set; zero otherwise.
	DependencyUpdateTime time.Duration
	// AssignTime is the accumulated wall-clock time spent finding the
	// nearest seed for arriving points. Only collected when
	// Config.DetailedStats is set; zero otherwise.
	AssignTime time.Duration
	// SeedCandidates is the number of seed distances measured during
	// nearest-seed probes. With the linear index it equals
	// Points × live cells; the grid index keeps it near the local
	// neighborhood size, which is what makes assignment sublinear.
	SeedCandidates int64
	// Deprecated: SpeculativeRoutes and SpeculationMisses counted the
	// parallel route phase of batched ingestion, which has been
	// removed; ingestion is serial and both are always zero. They are
	// kept for source compatibility and an unchanged checkpoint layout.
	SpeculativeRoutes, SpeculationMisses int64
	// EvolutionEvents is the number of evolution events recorded so far.
	EvolutionEvents int64
}
