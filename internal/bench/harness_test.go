package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain diverts the test binary into drill-child mode when a drill
// re-execs it (see RunChild); cmd/edmbench has the same diversion, so
// the drills work from both binaries.
func TestMain(m *testing.M) {
	if os.Getenv(ChildEnv) != "" {
		if err := RunChild(); err != nil {
			fmt.Fprintf(os.Stderr, "drill child: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// decodeArtifact strictly decodes an artifact into a fresh R (unknown
// fields are errors) and requires re-rendering it to reproduce raw
// byte for byte — every field survives, in the order it was written.
func decodeArtifact[R any](t *testing.T, raw []byte) R {
	t.Helper()
	var back R
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("artifact does not decode into %T: %v", back, err)
	}
	again, err := marshalArtifact(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatalf("%T does not reproduce its artifact:\n got %s\nwant %s", back, again, raw)
	}
	return back
}

// roundTripArtifact writes rep through WriteJSON and checks that the
// file decodes back into the same report.
func roundTripArtifact[R any](t *testing.T, rep R) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	decodeArtifact[R](t, raw)
}

// TestArtifactSchemas pins every committed artifact's format: each
// BENCH_*.json decodes into its report type with no unknown fields,
// carries its schema string, and re-renders byte-identically.
func TestArtifactSchemas(t *testing.T) {
	cases := []struct {
		file, schema string
		decode       func(*testing.T, []byte)
	}{
		{"BENCH_e2e.json", "edmstream-e2e/v1", func(t *testing.T, raw []byte) { decodeArtifact[E2EReport](t, raw) }},
		{"BENCH_overload.json", "edmstream-overload/v1", func(t *testing.T, raw []byte) { decodeArtifact[OverloadReport](t, raw) }},
		{"BENCH_recovery.json", "edmstream-dr/v1", func(t *testing.T, raw []byte) { decodeArtifact[DRReport](t, raw) }},
		{"BENCH_tenancy.json", "edmstream-tenancy/v1", func(t *testing.T, raw []byte) { decodeArtifact[TenancyReport](t, raw) }},
		{"BENCH_throughput.json", "edmstream-throughput/v1", func(t *testing.T, raw []byte) { decodeArtifact[ThroughputReport](t, raw) }},
		{"BENCH_serve.json", "edmstream-serve/v2", func(t *testing.T, raw []byte) { decodeArtifact[ServeReport](t, raw) }},
	}
	for _, c := range cases {
		t.Run(strings.TrimSuffix(c.file, ".json"), func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", c.file))
			if err != nil {
				t.Fatal(err)
			}
			var head struct {
				Schema string `json:"schema"`
			}
			if err := json.Unmarshal(raw, &head); err != nil || head.Schema != c.schema {
				t.Fatalf("schema = %q (%v), want %q", head.Schema, err, c.schema)
			}
			c.decode(t, raw)
		})
	}
}

// TestWriteJSON pins the artifact writer's format — two-space indent,
// trailing newline — and that a write failure is an error.
func TestWriteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := WriteJSON(path, struct {
		A int   `json:"a"`
		B []int `json:"b"`
	}{1, []int{2}}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}\n"; string(raw) != want {
		t.Errorf("artifact = %q, want %q", raw, want)
	}
	if err := WriteJSON(filepath.Join(t.TempDir(), "missing", "x.json"), 1); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
}

// TestNearestRank pins the one quantile rule every drill reports: the
// nearest-rank ceil(q·n)-th smallest sample. The overload drill's
// accepted-latency quantiles go through the same helper, so at n = 35
// its p99 is the largest sample, not the 34th.
func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n        int
		p50, p99 float64
	}{
		{1, 1, 1},
		{35, 18, 35},
		{100, 50, 99},
		{101, 51, 100},
	} {
		t.Run(fmt.Sprint(c.n), func(t *testing.T) {
			sorted := make([]float64, c.n)
			o := &overloadCounters{}
			for i := range sorted {
				sorted[i] = float64(i + 1)
				o.observe(float64(c.n - i)) // quantiles sorts
			}
			if got := nearestRank(sorted, 0.50); got != c.p50 {
				t.Errorf("p50 = %g, want %g", got, c.p50)
			}
			if got := nearestRank(sorted, 0.99); got != c.p99 {
				t.Errorf("p99 = %g, want %g", got, c.p99)
			}
			if p50, p99 := o.quantiles(); p50 != c.p50 || p99 != c.p99 {
				t.Errorf("overload quantiles = %g/%g, want %g/%g", p50, p99, c.p50, c.p99)
			}
		})
	}
	if got := nearestRank(nil, 0.99); got != 0 {
		t.Errorf("empty p99 = %g, want 0", got)
	}
}
