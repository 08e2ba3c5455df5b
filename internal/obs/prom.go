package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
)

// metric is one registered series as the renderers walk it: exactly
// one of c, g and s is set, and typ is its Prometheus type.
type metric struct {
	typ, name, labels string
	c                 *Counter
	g                 *Gauge
	s                 *Sample
}

// series returns every registered metric in render order: counters,
// then gauges, then summaries (the type names sort that way), each
// group by name and then by labels.
func (r *Registry) series() []metric {
	r.mu.Lock()
	ms := make([]metric, 0, len(r.counters)+len(r.gauges)+len(r.samples))
	for _, c := range r.counters {
		ms = append(ms, metric{typ: "counter", name: c.name, labels: c.labels, c: c})
	}
	for _, g := range r.gauges {
		ms = append(ms, metric{typ: "gauge", name: g.name, labels: g.labels, g: g})
	}
	for _, s := range r.samples {
		ms = append(ms, metric{typ: "summary", name: s.name, labels: s.labels, s: s})
	}
	r.mu.Unlock()
	slices.SortFunc(ms, func(a, b metric) int {
		return cmp.Or(cmp.Compare(a.typ, b.typ), cmp.Compare(a.name, b.name), cmp.Compare(a.labels, b.labels))
	})
	return ms
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// series, Samples as summaries with window quantiles and cumulative
// _count/_sum. Series of one metric family are emitted consecutively
// under a single # TYPE header, families in lexical order, series
// within a family in label order — the output is deterministic for a
// fixed set of registered metrics.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	var prev metric
	buf := make([]float64, 0, slotCount*slotSamples)
	for _, m := range r.series() {
		if m.typ != prev.typ || m.name != prev.name {
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.typ)
			prev = m
		}
		switch {
		case m.c != nil:
			fmt.Fprintf(&b, "%s %d\n", seriesName(m.name, m.labels, ""), m.c.Value())
		case m.g != nil:
			fmt.Fprintf(&b, "%s %d\n", seriesName(m.name, m.labels, ""), m.g.Value())
		default:
			st := m.s.statsInto(buf[:0])
			fmt.Fprintf(&b, "%s %g\n", seriesName(m.name, m.labels, `quantile="0.5"`), st.P50)
			fmt.Fprintf(&b, "%s %g\n", seriesName(m.name, m.labels, `quantile="0.9"`), st.P90)
			fmt.Fprintf(&b, "%s %g\n", seriesName(m.name, m.labels, `quantile="0.99"`), st.P99)
			fmt.Fprintf(&b, "%s %g\n", seriesName(m.name+"_sum", m.labels, ""), st.Sum)
			fmt.Fprintf(&b, "%s %d\n", seriesName(m.name+"_count", m.labels, ""), st.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// View is the registry as a JSON-ready map for one value of a
// partitioning label (the serving daemon's per-stream view): every
// series that lacks the label, plus every series whose label equals
// value. Keys are Prometheus series names with that label removed,
// e.g. `edmserved_admission_shed_total{reason="est_wait"}`. A counter
// or gauge maps to its value, a Sample to its Stats. Label values must
// not contain commas.
func (r *Registry) View(label, value string) map[string]any {
	out := map[string]any{}
	buf := make([]float64, 0, slotCount*slotSamples)
	for _, m := range r.series() {
		labels, ok := dropLabel(m.labels, label, value)
		if !ok {
			continue
		}
		key := seriesName(m.name, labels, "")
		switch {
		case m.c != nil:
			out[key] = m.c.Value()
		case m.g != nil:
			out[key] = m.g.Value()
		default:
			out[key] = m.s.statsInto(buf[:0])
		}
	}
	return out
}

// dropLabel removes label="value" from a raw label list. It reports
// false when the list carries the label with a different value.
func dropLabel(labels, label, value string) (string, bool) {
	if labels == "" {
		return "", true
	}
	kept := make([]string, 0, 2)
	for _, pair := range strings.Split(labels, ",") {
		if v, ok := strings.CutPrefix(pair, label+"="); ok {
			if v != `"`+value+`"` {
				return "", false
			}
			continue
		}
		kept = append(kept, pair)
	}
	return strings.Join(kept, ","), true
}

// seriesName renders one sample line's name{labels} prefix, merging
// the metric's own labels with an extra label (the quantile).
func seriesName(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}
