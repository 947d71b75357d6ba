package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func populated() *Registry {
	reg := NewRegistry()
	reg.Counter("proteus_market_grants_total", "allocations granted", L("kind", "spot"), L("type", "c4.xlarge")).Add(3)
	reg.Gauge("proteus_sim_pending_events", "event-queue depth").Set(12)
	h := reg.Histogram("proteus_ps_ssp_wait_seconds", "SSP gate wait", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	return reg
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := populated().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE proteus_market_grants_total counter",
		`proteus_market_grants_total{kind="spot",type="c4.xlarge"} 3`,
		"# TYPE proteus_sim_pending_events gauge",
		"proteus_sim_pending_events 12",
		"# TYPE proteus_ps_ssp_wait_seconds histogram",
		`proteus_ps_ssp_wait_seconds_bucket{le="0.01"} 1`,
		`proteus_ps_ssp_wait_seconds_bucket{le="0.1"} 2`,
		`proteus_ps_ssp_wait_seconds_bucket{le="+Inf"} 3`,
		"proteus_ps_ssp_wait_seconds_sum 5.055",
		"proteus_ps_ssp_wait_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusTextIndependentOfLabelOrder pins the exposition of a
// labelled family byte for byte: series sorted by label signature,
// labels by key, whatever order the call sites named them in.
func TestPrometheusTextIndependentOfLabelOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("grants_total", "allocations granted", L("type", "m4"), L("kind", "spot")).Add(2)
	reg.Counter("grants_total", "allocations granted", L("kind", "ondemand"), L("type", "c4")).Inc()
	reg.Counter("grants_total", "allocations granted", L("kind", "spot"), L("type", "m4")).Inc()
	reg.Counter("grants_total", "allocations granted").Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP grants_total allocations granted
# TYPE grants_total counter
grants_total 1
grants_total{kind="ondemand",type="c4"} 1
grants_total{kind="spot",type="m4"} 3
`
	if buf.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestHandlerMatchesFileExporter is the live-mode acceptance property:
// the /metrics endpoint serves exactly what WritePrometheus writes.
func TestHandlerMatchesFileExporter(t *testing.T) {
	reg := populated()
	var file bytes.Buffer
	if err := reg.WritePrometheus(&file); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != file.String() {
		t.Fatalf("endpoint and file exporter disagree:\n--- http ---\n%s\n--- file ---\n%s", body, file.String())
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
}

func TestPprofEndpointServes(t *testing.T) {
	srv := httptest.NewServer(populated().Mux())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
}

func TestWriteMetricsJSONL(t *testing.T) {
	reg := populated()
	reg.SetClock(func() time.Duration { return 30 * time.Second })
	var buf bytes.Buffer
	if err := reg.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d invalid: %v", lines, err)
		}
		if obj["type"] != "metric" {
			t.Fatalf("type = %v", obj["type"])
		}
		if obj["at_seconds"].(float64) != 30 {
			t.Fatalf("at_seconds = %v", obj["at_seconds"])
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("lines = %d, want 3", lines)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		0.419:  "0.419",
		-2:     "-2",
		1e18:   "1e+18",
		0.0001: "0.0001",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Fatalf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}
