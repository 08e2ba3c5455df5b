package edmstream

import "github.com/densitymountain/edmstream/internal/core"

// Options configures a Clusterer. Only Radius is required; every other
// field has a default matching the paper's experimental setup.
type Options struct {
	// Radius is the cluster-cell radius r: a new point joins an
	// existing cluster-cell when it is within Radius of the cell's
	// seed. Required. SuggestRadius helps pick a value from a sample of
	// the stream (the paper uses the 0.5%–2% pairwise-distance
	// quantile).
	Radius float64
	// Decay is the freshness decay model. The zero value selects the
	// paper's setting (a = 0.998 per arriving point, expressed against
	// the seconds clock as a = 0.998, λ = Rate).
	Decay Decay
	// Beta controls the active-cell density threshold: a cell is active
	// when its density reaches the fraction Beta of the stream's
	// steady-state total weight. Default 0.005 (see internal/core's
	// Config for why this differs from the paper's 0.0021).
	Beta float64
	// Rate is the expected arrival rate v in points per second.
	// Default 1000.
	Rate float64
	// Tau is the cluster-separation threshold: dependency links longer
	// than Tau separate density mountains. Zero lets the clusterer pick
	// τ from the initial decision graph (see TauSelector), which is the
	// paper's recommended mode.
	Tau float64
	// AdaptiveTau enables dynamic re-tuning of Tau as the stream
	// evolves (Sec. 5 of the paper).
	AdaptiveTau bool
	// TauSelector picks the initial τ from the decision graph; nil uses
	// the built-in largest-gap heuristic.
	TauSelector TauSelector
	// Alpha overrides the fitted balance parameter of the adaptive-τ
	// objective; zero fits it from the initial τ.
	Alpha float64
	// InitPoints is the number of points buffered before the DP-Tree is
	// initialized. Default 500.
	InitPoints int
	// Filters selects the dependency-update filters; the default
	// enables both the density filter and the triangle-inequality
	// filter. Use DisableFilters to run without them (only useful for
	// benchmarking the filters themselves).
	Filters FilterMode
	// DisableFilters turns every filter off (the paper's "wf"
	// configuration). It exists because the zero FilterMode means
	// "default".
	DisableFilters bool
	// EvolutionInterval is the stream-time interval in seconds between
	// cluster-evolution checks. Default 1.0; set negative to disable
	// automatic tracking.
	EvolutionInterval float64
	// SweepInterval is the stream-time interval in seconds between
	// maintenance sweeps. Default 1.0.
	SweepInterval float64
	// DeleteDelay is the idle time in seconds after which an inactive
	// cluster-cell is deleted. Zero uses the paper's Theorem 3 bound.
	DeleteDelay float64
	// MaxEvents caps the evolution log length. Zero keeps every event.
	MaxEvents int
	// IndexPolicy selects the nearest-seed index for the per-point hot
	// path. The default (IndexAuto) uses a uniform grid hash over seed
	// coordinates for low-dimensional Euclidean streams and a linear
	// scan otherwise (token-set streams, high dimensionality). All
	// policies produce identical clustering output; the knob exists
	// for benchmarking and for overriding the auto heuristic.
	IndexPolicy IndexPolicy
	// Deprecated: IngestWorkers is ignored. It sized the parallel route
	// phase of InsertBatch, which has been removed: batches are always
	// ingested serially on the calling goroutine. Every value,
	// including a negative one, is accepted and yields the same
	// clustering.
	IngestWorkers int
	// DetailedStats enables the per-point wall-clock instrumentation
	// behind Stats.AssignTime and Stats.DependencyUpdateTime. It is off
	// by default: the clock reads are fixed overhead on the ingest hot
	// path, and the clustering output is identical either way. Turn it
	// on to reproduce the paper's Fig. 11 accounting.
	DetailedStats bool
}

// toCore converts the public options to the internal configuration.
func (o Options) toCore() core.Config {
	cfg := core.Config{
		Radius:            o.Radius,
		Decay:             o.Decay,
		Beta:              o.Beta,
		Rate:              o.Rate,
		Tau:               o.Tau,
		AdaptiveTau:       o.AdaptiveTau,
		TauSelector:       o.TauSelector,
		Alpha:             o.Alpha,
		InitPoints:        o.InitPoints,
		EvolutionInterval: o.EvolutionInterval,
		SweepInterval:     o.SweepInterval,
		DeleteDelay:       o.DeleteDelay,
		MaxEvents:         o.MaxEvents,
		IndexPolicy:       o.IndexPolicy,
		DetailedStats:     o.DetailedStats,
	}
	if o.DisableFilters {
		cfg.SetFilters(core.FilterNone)
	} else if o.Filters != core.FilterNone {
		cfg.SetFilters(o.Filters)
	}
	return cfg
}

// Validate checks the options without building a Clusterer.
func (o Options) Validate() error { return o.toCore().Validate() }
