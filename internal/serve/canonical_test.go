package serve

// The canonical digest (api.go): every job id is the hex SHA-256 of the
// normalized request exactly as json.Marshal writes it, whether it is
// rendered for a submission, a batch entry or CanonicalJobID, and
// however poisoned the listed scratch it is rendered in. The poisoned
// test is named TestPool* so `make race-pools` repeats it under the
// race detector.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// marshalDigest is the reference digest: json.Marshal of the normalized
// request, hashed, in a new string.
func marshalDigest(t *testing.T, c *compiledRequest) string {
	t.Helper()
	b, err := json.Marshal(c.norm)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return "j" + hex.EncodeToString(sum[:])
}

// poisonCanonicals takes up to four scratches off the canonical list, or
// makes them, and lists them again poisoned: a buffer of stale JSON, a
// stale request and an encoder whose last write was a different form. A
// rendering that skipped its reset then hashes other bytes.
func poisonCanonicals(t *testing.T) {
	t.Helper()
	var cbs []*canonicalScratch
	for i := 0; i < 4; i++ {
		cb, ok := canonicals.Take()
		if !ok {
			cb = new(canonicalScratch)
			cb.enc = json.NewEncoder(cb)
		}
		cbs = append(cbs, cb)
	}
	stale := goldenRequest(t)
	stale.Change.ID, stale.Change.Elements = "STALE", []string{"stale"}
	for _, cb := range cbs {
		cb.req = *stale
		cb.buf = append(cb.buf[:0], bytes.Repeat([]byte(`{"stale":true}`), 64)...)
		cb.buf = cb.buf[:7]
		canonicals.Put(cb)
	}
}

// digestRequests returns requests of several shapes: the golden one, and
// changes with other elements, times, types and descriptions.
func digestRequests(t *testing.T) []*AssessRequest {
	reqs := []*AssessRequest{goldenRequest(t)}
	for i, ch := range []ChangeSpec{
		{ID: "A", Elements: []string{"nb1-ne-4"}, At: "2012-03-16T06:00:00+02:00"},
		{ID: "B", Type: "software-upgrade", Elements: []string{"nb1-ne-5", "nb1-ne-6"}, At: "2012-03-15T00:00:00Z", TrueQuality: 0.8, Description: "<b>&</b>"},
		{ID: "C", Elements: []string{"nb1-ne-1"}, At: "2012-03-17T12:00:00Z", PropagateToDescendants: true, TrueLoadMult: 1.25},
	} {
		req := goldenRequest(t)
		req.Change = ch
		req.KPIs = append([]string{"dropped-call-ratio"}, req.KPIs...)[:1+i%2]
		reqs = append(reqs, req)
	}
	return reqs
}

// TestPoolCanonicalDigestMatchesMarshal renders each request's digest
// on poisoned scratch — compiled alone, as CanonicalJobID, as a batch
// entry and through POST /v1/assess — sequentially and on several
// goroutines, and requires the reference digest every time.
func TestPoolCanonicalDigestMatchesMarshal(t *testing.T) {
	reqs := digestRequests(t)
	want := make([]string, len(reqs))
	for i, req := range reqs {
		c, err := compile(req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = marshalDigest(t, c)
	}
	for rep := 0; rep < 2; rep++ {
		for i, req := range reqs {
			poisonCanonicals(t)
			c, err := compile(req)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.hash(); got != want[i] {
				t.Errorf("request %d: digest %s, want %s", i, got, want[i])
			}
			poisonCanonicals(t)
			if got, err := CanonicalJobID(req); err != nil || got != want[i] {
				t.Errorf("request %d: CanonicalJobID %s (%v), want %s", i, got, err, want[i])
			}
		}
		var changes []ChangeSpec
		for _, req := range reqs {
			changes = append(changes, req.Change)
		}
		for i, req := range reqs {
			// A batch's entries share its KPIs: each entry's id is the
			// single submission's with the batch's KPIs.
			single := *req
			single.KPIs = reqs[0].KPIs
			c, err := compile(&single)
			if err != nil {
				t.Fatal(err)
			}
			poisonCanonicals(t)
			sub, err := compileBatch(goldenBatchRequest(t, changes))
			if err != nil {
				t.Fatal(err)
			}
			if got, ref := sub.entries[i].digest, marshalDigest(t, c); got != ref {
				t.Errorf("batch entry %d: digest %s, want %s", i, got, ref)
			}
		}
	}

	_, ts := newTestServer(t, Config{})
	poisonCanonicals(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, req := range reqs {
				if (i+g)%2 != 0 {
					continue
				}
				if got, err := CanonicalJobID(req); err != nil || got != want[i] {
					t.Errorf("goroutine %d request %d: CanonicalJobID %s (%v), want %s", g, i, got, err, want[i])
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := ts.Client().Post(ts.URL+"/v1/assess", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var sub SubmitResponse
				err = json.NewDecoder(resp.Body).Decode(&sub)
				resp.Body.Close()
				if err != nil || sub.ID != want[i] {
					t.Errorf("goroutine %d request %d: POST /v1/assess answered %s (%v), want %s", g, i, sub.ID, err, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	// Scratch a rendering released keeps no request.
	canonicals.Drain(func(*canonicalScratch) {})
	if got, err := CanonicalJobID(reqs[0]); err != nil || got != want[0] {
		t.Errorf("CanonicalJobID %s (%v), want %s", got, err, want[0])
	}
	canonicals.Drain(func(cb *canonicalScratch) {
		if fmt.Sprint(cb.req) != fmt.Sprint(AssessRequest{}) {
			t.Errorf("a released canonical scratch keeps a request: %+v", cb.req)
		}
	})
}
