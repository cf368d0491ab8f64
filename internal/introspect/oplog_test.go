package introspect_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/gmac"
	"repro/internal/introspect"
)

func TestMetricsEndpointOpenMetrics(t *testing.T) {
	driveWorkload(t)
	srv, err := introspect.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/adsm/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("scrape content type = %q, want the Prometheus 0.0.4 type", got)
	}
	body := get(t, "http://"+srv.Addr()+"/adsm/metrics")
	out := string(body)
	for _, want := range []string{
		"# TYPE adsm_faults_total counter",
		`adsm_faults_total{protocol="rolling-update"}`,
		"_bucket{",
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%.2000s", want, out)
		}
	}
}

func TestStatszQuantileColumns(t *testing.T) {
	driveWorkload(t)
	srv, err := introspect.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	out := string(get(t, "http://"+srv.Addr()+"/adsm/statsz"))
	if !strings.Contains(out, "adsm_fault_service_ns") {
		t.Fatalf("statsz missing fault-latency histogram:\n%s", out)
	}
	for _, col := range []string{" p50=", " p95=", " p99="} {
		if !strings.Contains(out, col) {
			t.Errorf("statsz histogram lines missing %q column:\n%s", col, out)
		}
	}
}

func TestOpLogEndpoint(t *testing.T) {
	ctx := driveWorkload(t)
	// One host write on lane 1 (worker 0), so the window holds a laned op.
	p, err := ctx.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	ctx.InLanes(1, func(_ int, ln *gmac.Lane) {
		if err := ln.HostWrite(p, []byte{1}); err != nil {
			t.Error(err)
		}
	})
	srv, err := introspect.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := get(t, "http://"+srv.Addr()+"/adsm/oplog")
	var doc struct {
		Capacity int    `json:"capacity"`
		Total    uint64 `json:"total"`
		Ops      []struct {
			At   int64  `json:"at_ns"`
			Kind string `json:"kind"`
			Lane uint32 `json:"lane"`
			Addr uint64 `json:"addr"`
			Note string `json:"note,omitempty"`
		} `json:"ops"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("oplog endpoint returned invalid JSON: %v\n%.1000s", err, body)
	}
	if doc.Capacity == 0 || doc.Total == 0 || len(doc.Ops) == 0 {
		t.Fatalf("flight window empty: capacity=%d total=%d ops=%d",
			doc.Capacity, doc.Total, len(doc.Ops))
	}
	kinds := map[string]bool{}
	laned := false
	for _, op := range doc.Ops {
		kinds[op.Kind] = true
		if op.Kind == "host-write" && op.Addr == uint64(p) {
			laned = op.Lane == 1
		}
	}
	if !laned {
		t.Errorf("the host write on lane 1 is not reported with lane 1")
	}
	for _, want := range []string{"alloc", "invoke", "fault"} {
		if !kinds[want] {
			t.Errorf("flight window has no %q ops; kinds seen: %v", want, kinds)
		}
	}
}

func TestFlightDumpEndpoint(t *testing.T) {
	driveWorkload(t)
	srv, err := introspect.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/adsm/flight-dump")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
		t.Fatalf("dump content type = %q", got)
	}
	data := get(t, "http://"+srv.Addr()+"/adsm/flight-dump")
	l, err := gmac.DecodeOpLog(data)
	if err != nil {
		t.Fatalf("dump does not decode: %v", err)
	}
	if len(l.Ops) == 0 {
		t.Fatal("dump carries no ops")
	}
}
