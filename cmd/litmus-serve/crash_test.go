package main

// Crash-recovery smoke test of the real litmus-serve binary: boot it
// with a journal, drive it with concurrent distinct requests, SIGKILL it
// mid-run (no drain, no fsync — the hard crash the journal exists for),
// restart it on the same journal directory, and require that every
// result a client had in hand before the crash is served byte-identical
// after replay, without recomputation.
//
// Gated behind LITMUS_CRASH_SMOKE=1 (it shells out to `go build`); run
// via `make crash-smoke` or directly:
//
//	LITMUS_CRASH_SMOKE=1 go test ./cmd/litmus-serve/ -run TestCrashRecoverySmoke

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// startServe boots the binary and returns the running command plus the
// base URL parsed from its stdout announcement.
func startServe(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			return cmd, strings.TrimSpace(line[i+len("listening on "):])
		}
	}
	_ = cmd.Process.Kill()
	t.Fatalf("litmus-serve never announced its address: %v", scanner.Err())
	return nil, ""
}

// crashRequest builds a distinct-digest request per seed, sized so a
// single assessment takes a few worker milliseconds — long enough that
// the kill lands mid-stream, short enough to keep the smoke fast.
func crashRequest(t *testing.T, net *netsim.Network, seed int64) *serve.AssessRequest {
	t.Helper()
	rncs := net.OfKind(netsim.RNC)
	if len(rncs) == 0 {
		t.Fatal("golden topology has no RNCs")
	}
	return &serve.AssessRequest{
		Topology:  &serve.TopologySpec{Seed: 17},
		Generator: &serve.GeneratorSpec{Seed: seed},
		Index:     serve.IndexSpec{Start: "2012-03-01T00:00:00Z", Step: "6h", N: 28 * 4},
		Change: serve.ChangeSpec{
			ID:          fmt.Sprintf("CHG-CRASH-%d", seed),
			Elements:    net.Children(rncs[0])[:3],
			At:          "2012-03-15T00:00:00Z",
			TrueQuality: -1.5,
		},
		KPIs:       []string{"voice-retainability"},
		WindowDays: 14,
		Assessor:   &serve.AssessorSpec{Seed: 9, Iterations: 120},
	}
}

// waitReady polls /readyz until it answers 200 and returns the decoded
// ready body (which carries replayedResults when a journal is attached).
func waitReady(t *testing.T, ctx context.Context, baseURL string) map[string]any {
	t.Helper()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/readyz", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			var body map[string]any
			dec := json.NewDecoder(resp.Body)
			decErr := dec.Decode(&body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if decErr != nil {
					t.Fatalf("decoding ready body: %v", decErr)
				}
				return body
			}
		}
		select {
		case <-ctx.Done():
			t.Fatalf("server at %s never became ready: %v", baseURL, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestCrashRecoverySmoke(t *testing.T) {
	if os.Getenv("LITMUS_CRASH_SMOKE") != "1" {
		t.Skip("set LITMUS_CRASH_SMOKE=1 to run the crash-recovery smoke test")
	}

	bin := filepath.Join(t.TempDir(), "litmus-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building litmus-serve: %v\n%s", err, out)
	}
	journalDir := filepath.Join(t.TempDir(), "journal")

	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	network := netsim.Build(topo)

	// Phase 1: boot with the journal, pour in distinct requests, and
	// SIGKILL once a handful of results are in client hands.
	cmd, baseURL := startServe(t, bin, "-addr", "127.0.0.1:0", "-workers", "2", "-journal-dir", journalDir)
	defer func() { _ = cmd.Process.Kill() }()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cl := client.New(baseURL, nil)
	cl.PollInterval = 5 * time.Millisecond

	const total = 24    // requests poured in before/through the crash
	const killAfter = 8 // completed results in hand when the kill fires

	var mu sync.Mutex
	completed := make(map[string][]byte) // digest → result bytes the client held pre-crash
	killed := make(chan struct{})
	var killOnce sync.Once

	var wg sync.WaitGroup
	work := make(chan int64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range work {
				req := crashRequest(t, network, seed)
				id, err := serve.CanonicalJobID(req)
				if err != nil {
					t.Errorf("canonical id for seed %d: %v", seed, err)
					continue
				}
				b, err := cl.Assess(ctx, req)
				if err != nil {
					// Requests in flight when the process dies fail with
					// transport errors; that is the crash, not a bug.
					continue
				}
				mu.Lock()
				completed[id] = b
				n := len(completed)
				mu.Unlock()
				if n >= killAfter {
					killOnce.Do(func() {
						if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
							t.Errorf("SIGKILL: %v", err)
						}
						close(killed)
					})
				}
			}
		}()
	}
	for seed := int64(5001); seed < 5001+total; seed++ {
		work <- seed
	}
	close(work)
	wg.Wait()
	select {
	case <-killed:
	default:
		t.Fatalf("workload finished without triggering the kill — only %d completions", len(completed))
	}
	_ = cmd.Wait() // reap; exit status is the kill signal
	if len(completed) < killAfter {
		t.Fatalf("only %d results in hand before the crash, want >= %d", len(completed), killAfter)
	}
	t.Logf("killed litmus-serve with %d completed results in client hands", len(completed))

	// Phase 2: restart on the same journal. Replay must resurrect every
	// completed result — served byte-identical from the job table with no
	// recomputation (GET /result, never a resubmit).
	cmd2, baseURL2 := startServe(t, bin, "-addr", "127.0.0.1:0", "-workers", "2", "-journal-dir", journalDir)
	defer func() {
		_ = cmd2.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd2.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("restarted litmus-serve exited uncleanly after SIGTERM: %v", err)
			}
		case <-time.After(30 * time.Second):
			_ = cmd2.Process.Kill()
			t.Error("restarted litmus-serve did not exit within 30s of SIGTERM")
		}
	}()

	ready := waitReady(t, ctx, baseURL2)
	replayed, _ := ready["replayedResults"].(float64)
	if int(replayed) < len(completed) {
		t.Errorf("replay resurrected %d results, want >= %d", int(replayed), len(completed))
	}

	cl2 := client.New(baseURL2, nil)
	for id, want := range completed {
		got, err := cl2.Result(ctx, id)
		if err != nil {
			t.Errorf("result %s lost across the crash: %v", id, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("result %s differs after replay:\ngot:\n%s\nwant:\n%s", id, got, want)
		}
	}
	t.Logf("restart replayed %d results; all %d pre-crash results byte-identical", int(replayed), len(completed))
}
