package main

// Smoke test of the real litmus-serve binary: build it, boot it on an
// ephemeral port, drive it with the typed client, and assert the golden
// scenario's decision (and bytes) match the committed fixture, then
// SIGTERM and require a clean drain.
//
// Gated behind LITMUS_SERVE_SMOKE=1 (it shells out to `go build`); run
// via `make serve-smoke` or directly:
//
//	LITMUS_SERVE_SMOKE=1 go test ./cmd/litmus-serve/

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

func TestServeSmoke(t *testing.T) {
	if os.Getenv("LITMUS_SERVE_SMOKE") != "1" {
		t.Skip("set LITMUS_SERVE_SMOKE=1 to run the binary smoke test")
	}

	bin := filepath.Join(t.TempDir(), "litmus-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building litmus-serve: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill() }()

	// The binary announces its effective address on stdout.
	var baseURL string
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			baseURL = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if baseURL == "" {
		t.Fatalf("litmus-serve never announced its address: %v", scanner.Err())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := client.New(baseURL, nil)

	result, err := cl.Assess(ctx, smokeRequest(t))
	if err != nil {
		t.Fatalf("assessing over HTTP: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden_assessment.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := append(append([]byte(nil), result...), '\n'); !bytes.Equal(got, want) {
		t.Errorf("binary result deviates from the golden fixture:\ngot:\n%s\nwant:\n%s", got, want)
	}
	var doc struct {
		Decision string `json:"decision"`
	}
	if err := json.Unmarshal(result, &doc); err != nil {
		t.Fatal(err)
	}
	var wantDoc struct {
		Decision string `json:"decision"`
	}
	if err := json.Unmarshal(want, &wantDoc); err != nil {
		t.Fatal(err)
	}
	if doc.Decision == "" || doc.Decision != wantDoc.Decision {
		t.Errorf("decision = %q, want %q", doc.Decision, wantDoc.Decision)
	}

	// One POST /v1/assess/batch round trip: the golden change plus a
	// sibling rides through the shared batch path. The golden entry was
	// just assessed, so it must come back cached with the exact golden
	// bytes; the sibling must assess cleanly.
	batchDoc, err := cl.AssessBatch(ctx, smokeBatchRequest(t))
	if err != nil {
		t.Fatalf("assessing batch over HTTP: %v", err)
	}
	if len(batchDoc.Entries) != 2 {
		t.Fatalf("batch returned %d entries, want 2", len(batchDoc.Entries))
	}
	for i, e := range batchDoc.Entries {
		if e.Error != "" {
			t.Errorf("batch entry %d (%s) failed: %s", i, e.ChangeID, e.Error)
		}
		if len(e.Assessment) == 0 {
			t.Errorf("batch entry %d (%s) has no assessment", i, e.ChangeID)
		}
	}
	if gold := batchDoc.Entries[0]; gold.Error == "" {
		if !gold.Cached {
			t.Errorf("golden batch entry was not served from the cache")
		}
		// The batch envelope compacts the embedded documents, so compare
		// modulo whitespace.
		var wantAssess, gotAssess bytes.Buffer
		if err := json.Compact(&wantAssess, result); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&gotAssess, gold.Assessment); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotAssess.Bytes(), wantAssess.Bytes()) {
			t.Errorf("golden batch entry deviates from the single-submission document:\ngot:\n%s\nwant:\n%s", gold.Assessment, result)
		}
	}

	// /metrics must carry a positive series of every metric the workload
	// moved: each counter's total, each latency histogram's _count.
	positive := scrapePositive(t, baseURL)
	for _, series := range []string{
		"litmus_http_requests_total",
		"litmus_cache_misses_total",
		"litmus_jobs_total",
		"litmus_job_seconds_count",
		"litmus_job_queue_seconds_count",
		"litmus_job_run_seconds_count",
	} {
		if !positive[series] {
			t.Errorf("/metrics has no positive %s series", series)
		}
	}

	// SIGTERM: the server must drain and exit zero.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("litmus-serve exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("litmus-serve did not exit within 30s of SIGTERM")
	}
}

// scrapePositive GETs /metrics and returns the base names (labels cut)
// of the series whose value is positive.
func scrapePositive(t *testing.T, baseURL string) map[string]bool {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, %v", resp.StatusCode, err)
	}
	positive := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		// Label values may hold spaces; the value follows the last one.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil && v > 0 {
			base, _, _ := strings.Cut(line[:i], "{")
			positive[base] = true
		}
	}
	return positive
}

func smokeRequest(t *testing.T) *serve.AssessRequest {
	t.Helper()
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rncs := net.OfKind(netsim.RNC)
	if len(rncs) == 0 {
		t.Fatal("golden topology has no RNCs")
	}
	return &serve.AssessRequest{
		Topology:  &serve.TopologySpec{Seed: 17},
		Generator: &serve.GeneratorSpec{Seed: 23},
		Index:     serve.IndexSpec{Start: "2012-03-01T00:00:00Z", Step: "6h", N: 28 * 4},
		Change: serve.ChangeSpec{
			ID:          "CHG-GOLD",
			Type:        "config-change",
			Description: "golden fixture change",
			Elements:    net.Children(rncs[0])[:3],
			At:          "2012-03-15T00:00:00Z",
			TrueQuality: -1.5,
		},
		KPIs:       []string{"voice-retainability", "data-accessibility"},
		WindowDays: 14,
		Assessor:   &serve.AssessorSpec{Seed: 9},
		Controls:   &serve.ControlsSpec{Predicates: []string{"same-kind", "same-parent"}},
	}
}

// smokeBatchRequest is the golden scenario reshaped as a two-entry
// changelog: the golden change itself (already cached by the time the
// batch runs) plus a clean sibling change on the next RNC.
func smokeBatchRequest(t *testing.T) *serve.BatchAssessRequest {
	t.Helper()
	single := smokeRequest(t)
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rncs := net.OfKind(netsim.RNC)
	if len(rncs) < 2 {
		t.Fatal("golden topology has fewer than two RNCs")
	}
	sibling := serve.ChangeSpec{
		ID:          "CHG-GOLD-B",
		Type:        "software-upgrade",
		Description: "smoke batch sibling change",
		Elements:    net.Children(rncs[1])[:3],
		At:          "2012-03-15T00:00:00Z",
		TrueQuality: 0,
	}
	return &serve.BatchAssessRequest{
		Topology:   single.Topology,
		Generator:  single.Generator,
		Index:      single.Index,
		Changes:    []serve.ChangeSpec{single.Change, sibling},
		KPIs:       single.KPIs,
		WindowDays: single.WindowDays,
		Assessor:   single.Assessor,
		Controls:   single.Controls,
	}
}
