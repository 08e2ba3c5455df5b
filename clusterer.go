package edmstream

import (
	"io"

	"github.com/densitymountain/edmstream/internal/core"
)

// Clusterer is an online stream clusterer implementing the EDMStream
// algorithm. Create one with New, feed it points with Insert, and query
// the clustering with Snapshot and the evolution log with Events.
//
// Concurrency: the mutating methods (Insert, InsertBatch, Snapshot,
// Clusters, DecisionGraph, Tau, Alpha, Now) must all be called from a
// single owner goroutine. The read-only serving methods — LastSnapshot,
// Assign, AssignBatch, Events and Stats — are lock-free and safe to
// call from any number of goroutines concurrently with ingestion; see
// the README's concurrency table.
type Clusterer struct {
	core *core.EDMStream
}

// New creates a Clusterer with the given options.
func New(opts Options) (*Clusterer, error) {
	c, err := core.New(opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Clusterer{core: c}, nil
}

// Insert consumes one stream point. Points must carry either a numeric
// vector or a token set, and a non-negative timestamp; invalid points
// are rejected without changing the clusterer's state.
func (c *Clusterer) Insert(p Point) error { return c.core.Insert(p) }

// InsertBatch consumes a batch of stream points in order. It produces
// exactly the same clustering as inserting the points one by one —
// identical snapshots, cells and evolution events — but amortizes the
// per-point bookkeeping (runs of points absorbed by the same cell share
// one dependency update), which makes it the preferred ingestion call when points arrive in groups (network reads, log
// segments, bursty sources). Validation is all-or-nothing: if any
// point is invalid the whole batch is rejected with no state change.
func (c *Clusterer) InsertBatch(pts []Point) error { return c.core.InsertBatch(pts) }

// InsertBatchAssigned consumes a batch exactly like InsertBatch and
// additionally reports, per point, the ID of the cluster-cell that
// absorbed it (the new cell's ID when the point seeded one). dst is
// overwritten (reusing its backing; pass nil to allocate) and
// returned. The IDs name cells at absorption time — a later sweep may
// delete an acked cell — and are cell IDs, not cluster IDs. The
// serving daemon (cmd/edmserved) uses this call to hand each coalesced
// ingest request its per-point acks.
func (c *Clusterer) InsertBatchAssigned(pts []Point, dst []int64) ([]int64, error) {
	return c.core.InsertBatchAssigned(pts, dst)
}

// Snapshot refreshes and returns the current clustering: the clusters
// (maximal strongly dependent subtrees of the DP-Tree), the τ used to
// separate them, and cell counts. The result is an independent deep
// copy the caller may hold or mutate freely. Owner goroutine only; a
// serving goroutine that just wants to read should use LastSnapshot.
func (c *Clusterer) Snapshot() Snapshot { return c.core.Snapshot() }

// LastSnapshot returns the most recent published snapshot without
// recomputing the clustering. It is lock-free and safe to call from
// any goroutine concurrently with ingestion; the returned snapshot is
// a shared read-only view — treat its slices as immutable (use
// Snapshot from the owner goroutine for an owned, mutable copy).
func (c *Clusterer) LastSnapshot() Snapshot { return c.core.LastSnapshot() }

// Assign classifies a point against the most recent published
// snapshot: it reports the cluster whose member cell's seed is nearest
// to p within the cell radius, or ok == false when no cluster claims
// the point (an outlier, or no snapshot has been published yet).
//
// Assign is the serving-path query: it is lock-free, allocation-free,
// and safe to call from any number of goroutines concurrently with
// Insert/InsertBatch — readers never block or slow the write path.
// The classification reflects the clustering as of the last refresh,
// not the live in-flight state.
func (c *Clusterer) Assign(p Point) (clusterID int, ok bool) { return c.core.Assign(p) }

// AssignBatch classifies every point in pts against one consistent
// published snapshot. It overwrites dst (reusing its backing; pass nil
// to allocate) with one cluster ID per point and returns it, with
// AssignOutlier for points no cluster claims. Like Assign it is safe
// for concurrent use with ingestion.
func (c *Clusterer) AssignBatch(pts []Point, dst []int) []int { return c.core.AssignBatch(pts, dst) }

// AssignOutlier is the cluster ID AssignBatch reports for points no
// cluster claims.
const AssignOutlier = core.AssignOutlier

// Events returns the cluster evolution log: every emerge, disappear,
// split, merge and adjust activity detected so far, in time order.
// Safe to call from any goroutine concurrently with ingestion.
func (c *Clusterer) Events() []Event { return c.core.Events() }

// EventsSince returns the evolution events with sequence number >=
// cursor together with the next cursor, supporting resumable
// consumption of the log (the serving daemon's GET /v1/events).
// Sequence numbers start at 0 and follow log order.
//
// The cursor contract: a cursor at or past the end returns an empty
// slice (never an error) with the current end cursor; passing the
// returned cursor back yields exactly the events recorded in between;
// the returned cursor only advances when new events are recorded —
// an intervening clustering refresh that detects no activity leaves
// it unchanged. When Options.MaxEvents trims the log, a cursor
// pointing into the trimmed prefix resumes at the oldest retained
// event. Safe to call from any goroutine concurrently with ingestion.
func (c *Clusterer) EventsSince(cursor uint64) ([]Event, uint64) {
	return c.core.EventsSince(cursor)
}

// DecisionGraph returns the current decision graph: each active
// cluster-cell's (density, dependent distance) pair. Plotting δ against
// ρ reproduces the paper's Fig. 2b / Fig. 15.
func (c *Clusterer) DecisionGraph() []DecisionPoint { return c.core.DecisionGraph() }

// Stats returns the clusterer's internal counters (cells created,
// promotions/demotions, filter hit counts, accumulated dependency
// update time, ...). Safe to call from any goroutine concurrently with
// ingestion: each counter is individually no staler than the owner's
// previous call (a reader racing the owner may mix counters from two
// adjacent calls; from the owner goroutine the values are exact).
func (c *Clusterer) Stats() Stats { return c.core.Stats() }

// Tau returns the cluster-separation threshold currently in effect.
func (c *Clusterer) Tau() float64 { return c.core.Tau() }

// Alpha returns the balance parameter used by the adaptive-τ objective.
func (c *Clusterer) Alpha() float64 { return c.core.Alpha() }

// Now returns the latest stream time the clusterer has observed.
func (c *Clusterer) Now() float64 { return c.core.Now() }

// ReservoirBound returns the theoretical upper bound on the number of
// inactive cluster-cells held in the outlier reservoir.
func (c *Clusterer) ReservoirBound() float64 { return c.core.ReservoirBound() }

// IndexKind reports which nearest-seed index the stream resolved to
// ("grid" or "linear"; empty before the first point arrives). The
// choice is controlled by Options.IndexPolicy.
func (c *Clusterer) IndexKind() string { return c.core.IndexKind() }

// WriteCheckpoint serializes the clusterer's complete state to w
// (CRC-protected). A clusterer restored from the checkpoint and fed
// the remainder of the stream produces output byte-identical to one
// that was never checkpointed — identical snapshots, cells, evolution
// events, statistics and τ. Owner goroutine only.
func (c *Clusterer) WriteCheckpoint(w io.Writer) error {
	return c.core.EncodeCheckpoint(w)
}

// RestoreCheckpoint replaces the clusterer's state with a checkpoint
// previously written by WriteCheckpoint under the same options. On
// error the clusterer is left unchanged. Owner goroutine only; no
// reader may hold the clusterer concurrently with a restore.
func (c *Clusterer) RestoreCheckpoint(r io.Reader) error {
	e, err := core.DecodeCheckpoint(c.core.Config(), r)
	if err != nil {
		return err
	}
	c.core = e
	return nil
}
