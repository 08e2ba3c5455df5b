// Package core implements EDMStream, the paper's density-mountain
// stream clustering algorithm (Sec. 4–5): cluster-cells summarize
// nearby points, the DP-Tree maintains the nearest-higher-density
// dependency between cells, an outlier reservoir parks low-density
// cells, the density and triangle-inequality filters (Theorems 1 and 2)
// keep dependency maintenance cheap, and the adaptive τ tuner (Sec. 5)
// adjusts the cluster-separation threshold as the stream evolves. The
// evolution tracker maps DP-Tree changes to the five cluster evolution
// activities of Table 1.
package core

import (
	"fmt"

	"github.com/densitymountain/edmstream/internal/stream"
)

// FilterMode selects which dependency-update filters are enabled. The
// paper's Fig. 11 compares no filtering (wf), the density filter alone
// (df) and both filters (df+tif).
type FilterMode uint8

// Filter flags.
const (
	// FilterNone disables both filters ("wf" in Fig. 11).
	FilterNone FilterMode = 0
	// FilterDensity enables the density filter of Theorem 1 ("df").
	FilterDensity FilterMode = 1 << iota
	// FilterTriangle enables the triangle-inequality filter of
	// Theorem 2 ("tif"). It builds on distances measured during point
	// assignment, so its additional cost is almost free.
	FilterTriangle
	// FilterAll enables both filters ("df+tif"), the default.
	FilterAll = FilterDensity | FilterTriangle
)

// String returns the paper's shorthand for the filter mode.
func (m FilterMode) String() string {
	switch m {
	case FilterNone:
		return "wf"
	case FilterDensity:
		return "df"
	case FilterTriangle:
		return "tif"
	case FilterAll:
		return "df+tif"
	default:
		return fmt.Sprintf("FilterMode(%d)", uint8(m))
	}
}

// IndexPolicy selects the nearest-seed index backing the per-point hot
// path (see internal/index).
type IndexPolicy uint8

// Index policies.
const (
	// IndexAuto (the default) picks per stream: a uniform grid hash
	// over seed coordinates for low-dimensional Euclidean streams, the
	// linear scan otherwise (token-set streams, which a coordinate grid
	// cannot bucket, and high-dimensional streams, where probing the
	// 3^d neighboring buckets stops paying off).
	IndexAuto IndexPolicy = iota
	// IndexGrid forces the grid index for numeric streams regardless
	// of dimensionality. Token-set streams still fall back to the
	// linear scan.
	IndexGrid
	// IndexLinear forces the linear scan. Mainly useful for
	// benchmarking the grid against it.
	IndexLinear
)

// String returns a short identifier for the policy.
func (p IndexPolicy) String() string {
	switch p {
	case IndexAuto:
		return "auto"
	case IndexGrid:
		return "grid"
	case IndexLinear:
		return "linear"
	default:
		return fmt.Sprintf("IndexPolicy(%d)", uint8(p))
	}
}

// DecisionPoint is one cell's (ρ, δ) pair on the decision graph
// (Fig. 2b / Fig. 15). The initial τ is chosen from the decision graph,
// either by a user or by the default largest-gap heuristic.
type DecisionPoint struct {
	// CellID identifies the cluster-cell.
	CellID int64
	// Rho is the cell's timely density.
	Rho float64
	// Delta is the cell's dependent distance (math.Inf(1) for the
	// absolute density peak).
	Delta float64
}

// TauSelector chooses the initial cluster-separation threshold τ⁰ from
// a decision graph. It stands in for the user-interaction step of
// Sec. 5; DefaultTauSelector implements the largest-gap heuristic.
type TauSelector func(graph []DecisionPoint) float64

// Config configures an EDMStream instance.
type Config struct {
	// Radius is the cluster-cell radius r (Def. 4). Required.
	Radius float64
	// Decay is the freshness decay model (default: a=0.998, λ=1).
	Decay stream.Decay
	// Beta controls the active-cell density threshold: a cell is active
	// when its timely density reaches the fraction β of the stream's
	// steady-state total weight (Sec. 4.3). The default is 0.005. The
	// paper's β = 0.0021 is calibrated against its slow per-second
	// decay (total weight ≈ v/(1−a^λ) ≈ 500,000 at 1 k pt/s, threshold
	// ≈ 1050 points of freshness); with the per-point-equivalent decay
	// this package defaults to, the steady-state weight is ≈ 500, and
	// β = 0.005 reproduces the same *relative* role of the threshold
	// (a few points of fresh weight, well above a single stray point,
	// well below an established cluster-cell).
	Beta float64
	// Rate is the expected point arrival rate v in points per second,
	// used by the active threshold and the reservoir bound. Default
	// 1000 (the paper's fixed rate).
	Rate float64
	// Tau is the static cluster-separation threshold. Used directly
	// when AdaptiveTau is false; used as the fallback initial τ⁰ when
	// AdaptiveTau is true and no TauSelector is given. Zero means
	// "choose from the decision graph at initialization".
	Tau float64
	// AdaptiveTau enables the dynamic τ adjustment of Sec. 5.
	AdaptiveTau bool
	// TauSelector picks τ⁰ from the initial decision graph. Nil means
	// DefaultTauSelector.
	TauSelector TauSelector
	// Alpha is the balance parameter of the objective F(τ) (Eq. 15).
	// Zero means "fit α from the initial τ⁰" as described in Sec. 5.
	Alpha float64
	// InitPoints is the number of points buffered before the DP-Tree
	// is initialized and τ⁰/α are chosen. Default 500.
	InitPoints int
	// Filters selects the dependency-update filters. Default FilterAll.
	Filters FilterMode
	// filtersSet records whether Filters was set explicitly; use
	// SetFilters to choose FilterNone (otherwise the zero value would
	// be indistinguishable from "use the default").
	filtersSet bool
	// EvolutionInterval is the stream-time interval (seconds) between
	// evolution checks. Zero means "use the default" (1.0); a negative
	// value disables automatic tracking (evolution is still checked
	// whenever Snapshot is called).
	EvolutionInterval float64
	// SweepInterval is the stream-time interval (seconds) between
	// maintenance sweeps (cell deactivation and reservoir expiry).
	// Default 1.0.
	SweepInterval float64
	// DeleteDelay is ΔTdel, the time an inactive cell may go without
	// absorbing a point before it is deleted (Sec. 4.4). Zero means
	// "use Theorem 3's bound for the configured β, v and decay".
	DeleteDelay float64
	// MaxEvents caps the evolution log length (oldest events are
	// dropped). Zero means unlimited.
	MaxEvents int
	// IndexPolicy selects the nearest-seed index for the per-point hot
	// path. The default (IndexAuto) uses the grid index for
	// low-dimensional Euclidean streams and the linear scan otherwise;
	// both produce identical clustering output.
	IndexPolicy IndexPolicy
	// DetailedStats enables the wall-clock instrumentation behind
	// Stats.AssignTime and Stats.DependencyUpdateTime (the Fig. 11
	// quantities). It is off by default because the two time.Now()
	// calls per point are measurable fixed overhead on the ingest hot
	// path; the clustering output is identical either way.
	DetailedStats bool
}

// SetFilters sets the filter mode explicitly, allowing FilterNone to be
// selected (the zero Config otherwise defaults to FilterAll).
func (c *Config) SetFilters(m FilterMode) {
	c.Filters = m
	c.filtersSet = true
}

// withDefaults returns a copy of the config with defaults filled in.
func (c Config) withDefaults() Config {
	if c.Beta == 0 {
		c.Beta = 0.005
	}
	if c.Rate == 0 {
		c.Rate = 1000
	}
	if c.Decay == (stream.Decay{}) {
		// The paper sets a^λ = 0.998 per arriving point; with this
		// package's clock in seconds and an expected arrival rate of v
		// points per second, the equivalent per-second decay is
		// a = 0.998, λ = v. This is what makes cluster-cells activate
		// within a second of stream time and stale points fade within a
		// few seconds, matching the paper's SDS snapshots (Fig. 6).
		c.Decay = stream.Decay{A: 0.998, Lambda: c.Rate}
	}
	if c.InitPoints == 0 {
		c.InitPoints = 500
	}
	if !c.filtersSet && c.Filters == FilterNone {
		c.Filters = FilterAll
	}
	if c.EvolutionInterval == 0 {
		c.EvolutionInterval = 1.0
	} else if c.EvolutionInterval < 0 {
		// Negative disables automatic evolution checks; the ingest loop
		// treats a non-positive interval as "off".
		c.EvolutionInterval = 0
	}
	if c.TauSelector == nil {
		c.TauSelector = DefaultTauSelector
	}
	if c.DeleteDelay == 0 {
		c.DeleteDelay = c.Decay.DeleteDelay(c.Beta, c.Rate)
	}
	if c.SweepInterval == 0 {
		// Sweep at least twice per ΔTdel so outdated reservoir cells are
		// removed promptly enough for the Sec. 4.4 size bound to hold.
		c.SweepInterval = 1.0
		if half := c.DeleteDelay / 2; half > 0 && half < c.SweepInterval {
			c.SweepInterval = half
		}
	}
	return c
}

// Validate checks the configuration for errors.
func (c Config) Validate() error {
	d := c.withDefaults()
	if d.Radius <= 0 {
		return fmt.Errorf("core: cluster-cell radius r must be positive, got %v", c.Radius)
	}
	if err := d.Decay.Validate(); err != nil {
		return err
	}
	if d.Rate <= 0 {
		return fmt.Errorf("core: arrival rate v must be positive, got %v", c.Rate)
	}
	lo, hi := d.Decay.BetaRange(d.Rate)
	if d.Beta <= lo || d.Beta >= hi {
		return fmt.Errorf("core: β = %v outside legal range (%v, %v) for rate %v", d.Beta, lo, hi, d.Rate)
	}
	if d.Tau < 0 {
		return fmt.Errorf("core: τ must be non-negative, got %v", c.Tau)
	}
	if d.Alpha < 0 || d.Alpha >= 1 {
		return fmt.Errorf("core: α must be in [0,1), got %v", c.Alpha)
	}
	if d.InitPoints < 0 {
		return fmt.Errorf("core: InitPoints must be non-negative, got %d", c.InitPoints)
	}
	if d.EvolutionInterval < 0 || d.SweepInterval < 0 {
		return fmt.Errorf("core: intervals must be non-negative")
	}
	if d.DeleteDelay < 0 {
		return fmt.Errorf("core: DeleteDelay must be non-negative, got %v", c.DeleteDelay)
	}
	if d.IndexPolicy > IndexLinear {
		return fmt.Errorf("core: unknown index policy %v", c.IndexPolicy)
	}
	return nil
}
