package server

import (
	"github.com/densitymountain/edmstream/internal/archive"
	"github.com/densitymountain/edmstream/internal/obs"
)

// archiveMetrics mirrors the shipper's atomic counters into the obs
// registry. Everything is a Gauge refreshed with Set by Server.collect
// before each render: the shipper owns the real counters, and
// concurrent delta-Adds from multiple scrape goroutines would
// double-count.
type archiveMetrics struct {
	shipped       *obs.Gauge
	shippedBytes  *obs.Gauge
	readBytes     *obs.Gauge
	failed        *obs.Gauge
	retried       *obs.Gauge
	dropped       *obs.Gauge
	skipped       *obs.Gauge
	pruned        *obs.Gauge
	lagObjects    *obs.Gauge
	lagRecords    *obs.Gauge
	lagSecondsK   *obs.Gauge
	lagging       *obs.Gauge
	localSeq      *obs.Gauge
	shippedSeq    *obs.Gauge
	shippedCkpSeq *obs.Gauge
}

func newArchiveMetrics(reg *obs.Registry, labels string) *archiveMetrics {
	return &archiveMetrics{
		shipped:       reg.Gauge("edmserved_archive_shipped_objects", labels),
		shippedBytes:  reg.Gauge("edmserved_archive_shipped_bytes", labels),
		readBytes:     reg.Gauge("edmserved_archive_read_bytes", labels),
		failed:        reg.Gauge("edmserved_archive_failed_uploads", labels),
		retried:       reg.Gauge("edmserved_archive_upload_retries", labels),
		dropped:       reg.Gauge("edmserved_archive_dropped_notifications", labels),
		skipped:       reg.Gauge("edmserved_archive_skipped_uploads", labels),
		pruned:        reg.Gauge("edmserved_archive_pruned_objects", labels),
		lagObjects:    reg.Gauge("edmserved_archive_lag_objects", labels),
		lagRecords:    reg.Gauge("edmserved_archive_lag_records", labels),
		lagSecondsK:   reg.Gauge("edmserved_archive_lag_seconds_x1000", labels),
		lagging:       reg.Gauge("edmserved_archive_lagging", labels),
		localSeq:      reg.Gauge("edmserved_archive_local_through_seq", labels),
		shippedSeq:    reg.Gauge("edmserved_archive_shipped_through_seq", labels),
		shippedCkpSeq: reg.Gauge("edmserved_archive_shipped_checkpoint_seq", labels),
	}
}

// refresh snapshots the shipper into the gauges. Safe from any
// goroutine.
func (m *archiveMetrics) refresh(st archive.ShipperStats) {
	m.shipped.Set(int64(st.Shipped))
	m.shippedBytes.Set(int64(st.ShippedBytes))
	m.readBytes.Set(int64(st.ReadBytes))
	m.failed.Set(int64(st.Failed))
	m.retried.Set(int64(st.Retried))
	m.dropped.Set(int64(st.Dropped))
	m.skipped.Set(int64(st.Skipped))
	m.pruned.Set(int64(st.Pruned))
	m.lagObjects.Set(st.LagObjects)
	m.lagRecords.Set(st.LagRecords)
	m.lagSecondsK.Set(int64(st.LagSeconds * 1000))
	if st.Lagging {
		m.lagging.Set(1)
	} else {
		m.lagging.Set(0)
	}
	m.localSeq.Set(int64(st.LocalThroughSeq))
	m.shippedSeq.Set(int64(st.ShippedThroughSeq))
	m.shippedCkpSeq.Set(int64(st.ShippedCheckpointSeq))
}
