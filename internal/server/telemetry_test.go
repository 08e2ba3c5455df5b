package server

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/densitymountain/edmstream/internal/archive"
)

// quiescentTwoStreamServer boots a durable, archived server with two
// streams — the default one and "alpha" — ingests a different amount
// into each, and waits until both shippers have caught up, so nothing
// moves between two reads of its telemetry.
func quiescentTwoStreamServer(t *testing.T) string {
	t.Helper()
	store, err := archive.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tenantConfig()
	cfg.DataDir = t.TempDir()
	cfg.WALSegmentBytes = 4 << 10
	cfg.CheckpointEvery = 150
	cfg.ArchiveStore = store
	cfg.ArchiveRetryBase = time.Millisecond
	cfg.ArchiveRetryMax = 10 * time.Millisecond
	_, _, base := startServer(t, testOptions(), cfg)
	var ack ingestResponse
	postJSON(t, base+"/v1/ingest", twoBlobPoints(300, 1), &ack)
	postJSON(t, base+"/v1/alpha/ingest", twoBlobPoints(200, 2), &ack)
	for _, name := range []string{"default", "alpha"} {
		waitCond(t, "the shipper of stream "+name+" to catch up", func() bool {
			var st statsBody
			getJSON(t, base+"/v1/"+name+"/stats", &st)
			// lag_seconds clears only after the shipper's run loop has
			// finished with its last task.
			return metricNum(t, st, "edmserved_archive_lag_objects") == 0 &&
				metricNum(t, st, "edmserved_archive_lag_records") == 0 &&
				metricNum(t, st, "edmserved_archive_lag_seconds_x1000") == 0 &&
				metricNum(t, st, "edmserved_archive_lagging") == 0 &&
				metricNum(t, st, "edmserved_archive_shipped_checkpoint_seq") > 0
		})
	}
	return base
}

// promSeries is one /metrics sample line: family name and type (from
// the # TYPE header), the line's own name, its labels split into
// pairs, and its value.
type promSeries struct {
	family, typ, name string
	labels            []string
	value             float64
}

// parseProm reads Prometheus text exposition into sample lines.
func parseProm(t *testing.T, text string) []promSeries {
	t.Helper()
	var out []promSeries
	family, typ := "", ""
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, typ, _ = strings.Cut(f, " ")
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		ps := promSeries{family: family, typ: typ, name: line[:sp], value: v}
		if i := strings.IndexByte(ps.name, '{'); i >= 0 {
			ps.labels = strings.Split(strings.TrimSuffix(ps.name[i+1:], "}"), ",")
			ps.name = ps.name[:i]
		}
		if !strings.HasPrefix(ps.name, family) {
			t.Fatalf("metrics line %q outside its family %q", line, family)
		}
		out = append(out, ps)
	}
	return out
}

// quantileField maps a /metrics quantile label to its field in a
// /v1/stats summary.
var quantileField = map[string]string{`quantile="0.5"`: "p50", `quantile="0.9"`: "p90", `quantile="0.99"`: "p99"}

// TestStatsMetricsMatchPrometheus: /v1/stats and /metrics are one
// telemetry source. On a quiescent durable, archived server with two
// streams, every series /metrics prints without a stream label or with
// the addressed stream's appears in that stream's /v1/stats metrics
// under the same name (stream label dropped) and with the same value,
// and the stats view holds nothing else — no series of the other
// stream.
func TestStatsMetricsMatchPrometheus(t *testing.T) {
	base := quiescentTwoStreamServer(t)
	for _, name := range []string{"default", "alpha"} {
		prom := parseProm(t, getBody(t, base+"/metrics"))
		var st statsBody
		url := base + "/v1/" + name + "/stats"
		if err := json.Unmarshal([]byte(getBody(t, url)), &st); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}

		want := map[string]map[string]float64{} // view key -> field ("" for a plain value) -> value
		for _, ps := range prom {
			var rest []string
			field := ""
			other := false
			for _, l := range ps.labels {
				switch {
				case l == `stream="`+name+`"`:
				case strings.HasPrefix(l, "stream="):
					other = true
				case strings.HasPrefix(l, "quantile="):
					field = quantileField[l]
				default:
					rest = append(rest, l)
				}
			}
			if other {
				continue
			}
			if ps.typ == "summary" && field == "" {
				field = strings.TrimPrefix(ps.name, ps.family+"_") // sum or count
			}
			key := ps.family
			if len(rest) > 0 {
				key += "{" + strings.Join(rest, ",") + "}"
			}
			if want[key] == nil {
				want[key] = map[string]float64{}
			}
			want[key][field] = ps.value
		}

		if len(st.Metrics) != len(want) {
			var extra []string
			for k := range st.Metrics {
				if want[k] == nil {
					extra = append(extra, k)
				}
			}
			t.Errorf("%s: stats view has %d series, /metrics %d; only in the view: %v", name, len(st.Metrics), len(want), extra)
		}
		for key, fields := range want {
			got, ok := st.Metrics[key]
			if !ok {
				t.Errorf("%s: /metrics series %s missing from the stats view", name, key)
				continue
			}
			// The /metrics scrape records its own request after its
			// body is written, so the stats read that follows sees one
			// more; its latencies moved too.
			self := key == `edmserved_http_requests_total{endpoint="metrics"}` ||
				key == `edmserved_http_request_duration_seconds{endpoint="metrics"}`
			for field, v := range fields {
				var g float64
				if field == "" {
					g, _ = got.(float64)
				} else {
					m, _ := got.(map[string]any)
					g, _ = m[field].(float64)
				}
				switch {
				case self && (field == "" || field == "count"):
					v++
				case self:
					continue
				}
				if g != v {
					t.Errorf("%s: %s %s = %v in the stats view, %v in /metrics", name, key, field, g, v)
				}
			}
		}
	}
}

// metricsFamilies is the /metrics surface of a durable, archived
// server with named streams: every family with its type and label
// keys. Dashboards and perfbench scrape these names, so a family may
// be added here but never renamed or dropped.
var metricsFamilies = []string{
	"edmserved_admission_estimated_wait_seconds summary",
	"edmserved_admission_shed_total{reason} counter",
	"edmserved_archive_dropped_notifications{stream} gauge",
	"edmserved_archive_failed_uploads{stream} gauge",
	"edmserved_archive_lag_objects{stream} gauge",
	"edmserved_archive_lag_records{stream} gauge",
	"edmserved_archive_lag_seconds_x1000{stream} gauge",
	"edmserved_archive_lagging{stream} gauge",
	"edmserved_archive_local_through_seq{stream} gauge",
	"edmserved_archive_pruned_objects{stream} gauge",
	"edmserved_archive_read_bytes{stream} gauge",
	"edmserved_archive_shipped_bytes{stream} gauge",
	"edmserved_archive_shipped_checkpoint_seq{stream} gauge",
	"edmserved_archive_shipped_objects{stream} gauge",
	"edmserved_archive_shipped_through_seq{stream} gauge",
	"edmserved_archive_skipped_uploads{stream} gauge",
	"edmserved_archive_upload_retries{stream} gauge",
	"edmserved_coalescer_batch_points{stream} summary",
	"edmserved_coalescer_batch_requests{stream} summary",
	"edmserved_coalescer_batch_wait_seconds{stream} summary",
	"edmserved_coalescer_batches_total{stream} counter",
	"edmserved_coalescer_client_cancels_total{stream} counter",
	"edmserved_coalescer_flush_seconds{stream} summary",
	"edmserved_coalescer_pending_requests{stream} gauge",
	"edmserved_coalescer_points_total{stream} counter",
	"edmserved_coalescer_rejects_total{stream} counter",
	"edmserved_degraded_entered_total{stream} counter",
	"edmserved_degraded_recovered_total{stream} counter",
	"edmserved_degraded{stream} gauge",
	"edmserved_http_errors_total{endpoint} counter",
	"edmserved_http_request_duration_seconds{endpoint} summary",
	"edmserved_http_requests_total{endpoint} counter",
	"edmserved_recovery_est_replay_ms{stream} gauge",
	"edmserved_recovery_replay_points_per_sec{stream} gauge",
	"edmserved_streams_active gauge",
	"edmserved_streams_evicted_total counter",
	"edmserved_streams_memory_bytes gauge",
	"edmserved_streams_registered gauge",
	"edmserved_streams_revivals gauge",
	"edmserved_wal_append_retries{stream} gauge",
	"edmserved_wal_budget_checkpoints_total{stream} counter",
	"edmserved_wal_bytes_total{stream} counter",
	"edmserved_wal_checkpoint_errors_total{stream} counter",
	"edmserved_wal_checkpoint_seconds{stream} summary",
	"edmserved_wal_checkpoints_total{stream} counter",
	"edmserved_wal_fsync_seconds{stream} summary",
	"edmserved_wal_probe_failures_total{stream} counter",
	"edmserved_wal_records_total{stream} counter",
	"edmserved_wal_recovered_records{stream} gauge",
	"edmserved_wal_recovery_dropped_bytes{stream} gauge",
	"edmserved_wal_recovery_seconds_x1000{stream} gauge",
	"edmserved_wal_reopens{stream} gauge",
	"edmserved_wal_segments{stream} gauge",
	"edmserved_writer_queue_depth gauge",
}

// TestMetricsFamiliesGolden pins metricsFamilies against the live
// /metrics output.
func TestMetricsFamiliesGolden(t *testing.T) {
	base := quiescentTwoStreamServer(t)
	var got []string
	for _, ps := range parseProm(t, getBody(t, base+"/metrics")) {
		var keys []string
		for _, l := range ps.labels {
			if k, _, _ := strings.Cut(l, "="); k != "quantile" {
				keys = append(keys, k)
			}
		}
		f := ps.family
		if len(keys) > 0 {
			f += "{" + strings.Join(keys, ",") + "}"
		}
		f += " " + ps.typ
		if !slices.Contains(got, f) {
			got = append(got, f)
		}
	}
	slices.Sort(got)
	want := slices.Sorted(slices.Values(metricsFamilies))
	if !slices.Equal(got, want) {
		t.Errorf("/metrics families changed:\n got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
