package journal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func mustAppend(t *testing.T, j *Journal, rec Record) {
	t.Helper()
	if err := j.Append(rec); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

func replayAll(t *testing.T, j *Journal) []Record {
	t.Helper()
	var out []Record
	if err := j.Replay(func(rec Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func submitRec(digest string, payload string) Record {
	return Record{Kind: KindSubmit, Digest: digest, Payload: []byte(payload)}
}

func completeRec(digest string, payload string) Record {
	return Record{Kind: KindComplete, Digest: digest, Payload: []byte(payload)}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		submitRec("jaaa", `{"req":1}`),
		{Kind: KindBatchSubmit, Digest: "bbbb", Payload: []byte(`{"changes":[]}`)},
		{Kind: KindComplete, Digest: "jaaa", Degraded: true, Payload: []byte(`{"result":1}`)},
		{Kind: KindComplete, Digest: "bbbb", Failed: true, Payload: []byte("boom")},
		{Kind: KindComplete, Digest: "jccc", Canceled: true},
	}
	for _, rec := range want {
		mustAppend(t, j, rec)
	}
	got := replayAll(t, j)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Kind != w.Kind || g.Digest != w.Digest || g.Degraded != w.Degraded ||
			g.Failed != w.Failed || g.Canceled != w.Canceled || !bytes.Equal(g.Payload, w.Payload) {
			t.Errorf("record %d: got %+v, want %+v", i, g, w)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same records, and the journal stays appendable.
	j2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := replayAll(t, j2); len(got) != len(want) {
		t.Fatalf("replay after reopen: %d records, want %d", len(got), len(want))
	}
	mustAppend(t, j2, submitRec("jddd", "{}"))
	if got := replayAll(t, j2); len(got) != len(want)+1 {
		t.Fatalf("replay after reopen+append: %d records, want %d", len(got), len(want)+1)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, submitRec("jaaa", "{}"))
	mustAppend(t, j, completeRec("jaaa", "result-bytes"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := segmentFiles(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments = %v (err %v), want exactly one", names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct {
		mutate   func([]byte) []byte
		wantRecs int
	}{
		// A crash mid-append leaves a partial frame: the torn complete is
		// lost, the submit before it survives.
		"torn tail": {func(b []byte) []byte { return b[:len(b)-3] }, 1},
		// A bit flip inside the last frame body fails its checksum.
		"bit flip": {func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-6] ^= 0x40
			return c
		}, 1},
		// Trailing garbage after the last clean frame: both frames
		// survive, the garbage is truncated.
		"garbage tail": {func(b []byte) []byte { return append(append([]byte(nil), b...), 0xff, 0xff, 0xff) }, 2},
	} {
		t.Run(name, func(t *testing.T) {
			sub := t.TempDir()
			path := filepath.Join(sub, filepath.Base(names[0]))
			if err := os.WriteFile(path, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			jr, err := Open(Options{Dir: sub})
			if err != nil {
				t.Fatalf("Open on damaged segment: %v", err)
			}
			defer jr.Close()
			recs := replayAll(t, jr)
			if len(recs) != tc.wantRecs || recs[0].Kind != KindSubmit {
				t.Fatalf("replay after repair: %+v, want %d records starting with the submit", recs, tc.wantRecs)
			}
			// The repaired journal must accept appends cleanly.
			mustAppend(t, jr, completeRec("jaaa", "recomputed"))
			if recs := replayAll(t, jr); len(recs) != tc.wantRecs+1 {
				t.Fatalf("replay after repair+append: %d records, want %d", len(recs), tc.wantRecs+1)
			}
		})
	}
}

func TestOpenResetsForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segmentName(1))
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open over foreign segment: %v", err)
	}
	defer j.Close()
	if recs := replayAll(t, j); len(recs) != 0 {
		t.Fatalf("replay of reset segment: %d records, want 0", len(recs))
	}
	mustAppend(t, j, submitRec("jaaa", "{}"))
	if recs := replayAll(t, j); len(recs) != 1 {
		t.Fatalf("replay after reset+append: %d records, want 1", len(recs))
	}
}

func TestRotationAndSequenceContinuity(t *testing.T) {
	dir := t.TempDir()
	// Tiny segment bound: every append beyond the first rotates.
	j, err := Open(Options{Dir: dir, MaxSegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, j, submitRec(fmt.Sprintf("j%03d", i), `{"pad":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %v", names)
	}
	j2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if recs := replayAll(t, j2); len(recs) != 10 {
		t.Fatalf("replay across segments: %d records, want 10", len(recs))
	}
	// The reopened journal continues the sequence instead of colliding.
	mustAppend(t, j2, submitRec("j999", "{}"))
	if recs := replayAll(t, j2); len(recs) != 11 {
		t.Fatalf("replay after reopen: %d records, want 11", len(recs))
	}
}

func TestCompactDropsSupersededAndExpired(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	j, err := Open(Options{Dir: dir, MaxSegmentBytes: 1, RetainResults: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// MaxSegmentBytes 1 seals every record into its own segment, so
	// compaction sees everything but the last append.
	mustAppend(t, j, submitRec("jaaa", "req-a"))                                 // superseded by the complete
	mustAppend(t, j, completeRec("jaaa", "res-a"))                               // expired (RetainResults 2)
	mustAppend(t, j, submitRec("jbbb", "req-b"))                                 // still pending: kept
	mustAppend(t, j, completeRec("jccc", "res-c1"))                              // superseded by res-c2
	mustAppend(t, j, completeRec("jccc", "res-c2"))                              // kept (newest for jccc)
	mustAppend(t, j, completeRec("jddd", "res-d"))                               // kept (newest 2 overall)
	mustAppend(t, j, Record{Kind: KindComplete, Digest: "jeee", Canceled: true}) // not terminal
	mustAppend(t, j, submitRec("jeee", "req-e"))                                 // kept: canceled ≠ terminal
	mustAppend(t, j, submitRec("jpad", "pad"))                                   // last append stays active
	j.compactWG.Wait()
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}

	recs := replayAll(t, j)
	byKey := map[string][]Record{}
	for _, r := range recs {
		byKey[r.Digest] = append(byKey[r.Digest], r)
	}
	if len(byKey["jaaa"]) != 0 {
		t.Errorf("jaaa survived compaction: %+v (submit superseded, complete expired)", byKey["jaaa"])
	}
	if len(byKey["jbbb"]) != 1 || byKey["jbbb"][0].Kind != KindSubmit {
		t.Errorf("jbbb = %+v, want its pending submit kept", byKey["jbbb"])
	}
	var ccc []string
	for _, r := range byKey["jccc"] {
		ccc = append(ccc, string(r.Payload))
	}
	if len(ccc) != 1 || ccc[0] != "res-c2" {
		t.Errorf("jccc completes = %v, want only res-c2", ccc)
	}
	if len(byKey["jddd"]) != 1 {
		t.Errorf("jddd = %+v, want its complete kept", byKey["jddd"])
	}
	// jeee's canceled complete is not terminal: the submit must survive
	// so the job is re-enqueued on the next boot.
	foundSubmit := false
	for _, r := range byKey["jeee"] {
		if r.Kind == KindSubmit {
			foundSubmit = true
		}
	}
	if !foundSubmit {
		t.Errorf("jeee = %+v, want the submit kept after a canceled complete", byKey["jeee"])
	}
	if got := counterVal(t, reg, obs.MetricJournalCompactions); got < 1 {
		t.Errorf("compactions counter = %d, want >= 1", got)
	}
	if got := counterVal(t, reg, obs.MetricJournalAppends); got != 9 {
		t.Errorf("appends counter = %d, want 9", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened journal replays the compacted state identically.
	j2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(replayAll(t, j2)); got != len(recs) {
		t.Fatalf("replay after reopen: %d records, want %d", got, len(recs))
	}
}

func TestCompactCrashLeavesTempIgnored(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, submitRec("jaaa", "{}"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-compaction: a half-written temporary.
	if err := os.WriteFile(filepath.Join(dir, compactTmp), []byte("LJR1garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, err := os.Stat(filepath.Join(dir, compactTmp)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale compaction temp not removed on Open (stat err %v)", err)
	}
	if recs := replayAll(t, j2); len(recs) != 1 {
		t.Fatalf("replay: %d records, want 1", len(recs))
	}
}

func TestDecodeSegmentTypedErrors(t *testing.T) {
	frame, err := appendFrame([]byte(Magic), &Record{Kind: KindSubmit, Digest: "jaaa", Payload: []byte("{}")})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSegment([]byte("XXXX")); err != ErrBadMagic {
		t.Errorf("foreign magic: err = %v, want ErrBadMagic", err)
	}
	if _, _, err := DecodeSegment(nil); err != ErrBadMagic {
		t.Errorf("empty input: err = %v, want ErrBadMagic", err)
	}
	var ce *CorruptError
	if _, clean, err := DecodeSegment(frame[:len(frame)-2]); !errors.As(err, &ce) || clean != int64(len(Magic)) {
		t.Errorf("torn frame: err = %v clean = %d, want *CorruptError at magic end", err, clean)
	}
	flipped := append([]byte(nil), frame...)
	flipped[6] ^= 0x01
	if _, _, err := DecodeSegment(flipped); !errors.As(err, &ce) {
		t.Errorf("bit flip: err = %v, want *CorruptError", err)
	}
	if recs, clean, err := DecodeSegment(frame); err != nil || len(recs) != 1 || clean != int64(len(frame)) {
		t.Errorf("clean segment: recs=%d clean=%d err=%v", len(recs), clean, err)
	}
}

func counterVal(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	v, _ := reg.Snapshot()[name].(int64)
	return v
}

// TestFinalsSurviveCompaction folds seeded random streams of submits,
// batch submits and done, failed and canceled completes over a few
// digests through a journal whose tiny segments rotate (and compact in
// the background) every few records, then compacts what is sealed. The
// final states it replays must equal those of the same stream in an
// uncompacted journal, except for done results RetainResults expired:
// those must be the oldest, and at least RetainResults must survive.
func TestFinalsSurviveCompaction(t *testing.T) {
	const retain = 2
	var expiredTotal int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		compacted, err := Open(Options{Dir: t.TempDir(), MaxSegmentBytes: 96, RetainResults: retain})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := Open(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			rec := Record{Digest: fmt.Sprintf("j%d", rng.Intn(5)), Payload: []byte(fmt.Sprintf("p%d", i))}
			switch rng.Intn(5) {
			case 0:
				rec.Kind = KindSubmit
			case 1:
				rec.Kind = KindBatchSubmit
			case 2:
				rec.Kind = KindComplete
				rec.Degraded = rng.Intn(2) == 0
			case 3:
				rec.Kind, rec.Failed = KindComplete, true
			default:
				rec.Kind, rec.Canceled = KindComplete, true
			}
			mustAppend(t, compacted, rec)
			mustAppend(t, whole, rec)
		}
		compacted.compactWG.Wait()
		if err := compacted.Compact(); err != nil {
			t.Fatal(err)
		}
		before := finalsByDigest(t, whole)
		after := finalsByDigest(t, compacted)
		if names, _ := segmentFiles(compacted.Dir()); len(names) > 2 {
			t.Errorf("seed %d: %d segments after Compact, want the compacted one and the active one", seed, len(names))
		}
		for _, j := range []*Journal{compacted, whole} {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}

		if len(after) > len(before) {
			t.Errorf("seed %d: %d digests after Compact, %d before", seed, len(after), len(before))
		}
		oldestKept, newestExpired, kept, withDone := -1, -1, 0, 0
		for d, b := range before {
			a := after[d]
			if !sameRecord(a.Submit, b.Submit) {
				t.Errorf("seed %d, %s: pending submit %s after Compact, %s before", seed, d, describe(a.Submit), describe(b.Submit))
			}
			if b.Done == nil {
				if a.Done != nil {
					t.Errorf("seed %d, %s: done %s after Compact, none before", seed, d, describe(a.Done))
				}
				continue
			}
			withDone++
			switch {
			case a.Done == nil: // expired
				expiredTotal++
				newestExpired = max(newestExpired, b.DoneAt)
			case sameRecord(a.Done, b.Done):
				kept++
				if oldestKept < 0 || b.DoneAt < oldestKept {
					oldestKept = b.DoneAt
				}
			default:
				t.Errorf("seed %d, %s: done %s after Compact, %s before", seed, d, describe(a.Done), describe(b.Done))
			}
		}
		if kept < min(retain, withDone) {
			t.Errorf("seed %d: %d done results kept of %d, want at least %d", seed, kept, withDone, retain)
		}
		if kept > 0 && newestExpired > oldestKept {
			t.Errorf("seed %d: a done result at %d expired while an older one at %d was kept", seed, newestExpired, oldestKept)
		}
	}
	if expiredTotal == 0 {
		t.Error("no seed expired a done result: RetainResults went unexercised")
	}
}

func finalsByDigest(t *testing.T, j *Journal) map[string]Final {
	t.Helper()
	finals, err := j.Finals()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Final{}
	for _, f := range finals {
		out[f.Digest] = f
	}
	return out
}

func sameRecord(a, b *Record) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Kind == b.Kind && a.Digest == b.Digest && a.Degraded == b.Degraded &&
		a.Failed == b.Failed && a.Canceled == b.Canceled && bytes.Equal(a.Payload, b.Payload)
}

func describe(r *Record) string {
	if r == nil {
		return "none"
	}
	return fmt.Sprintf("%s %q", r.Kind, r.Payload)
}
