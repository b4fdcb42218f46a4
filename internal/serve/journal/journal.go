package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Defaults.
const (
	DefaultMaxSegmentBytes = 4 << 20
	DefaultRetainResults   = 1024
)

const (
	segmentGlob = "journal-*.ljr"
	compactTmp  = "journal-compact.tmp"
)

// segmentName renders the file name of segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("journal-%08d.ljr", seq) }

// Options parameterizes a Journal.
type Options struct {
	// Dir is the segment directory (created if missing).
	Dir string
	// MaxSegmentBytes rotates the active segment beyond this size
	// (default DefaultMaxSegmentBytes).
	MaxSegmentBytes int64
	// RetainResults bounds how many completed results compaction keeps
	// (newest first; default DefaultRetainResults, the serve tier's
	// default CacheSize). Callers align it with the server's CacheSize,
	// the bound on its finished records, so the journal retains what a
	// boot can actually restore.
	RetainResults int
	// Registry receives the journal counters
	// (litmus_journal_{appends,compactions}_total). Nil records nothing.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if o.RetainResults <= 0 {
		o.RetainResults = DefaultRetainResults
	}
	return o
}

// Journal is a durable append-only record of job state transitions.
// Open it, Append on every transition, Replay on boot, Close on
// shutdown. Append and Replay are safe for concurrent use.
type Journal struct {
	opts Options

	mu     sync.Mutex
	file   *os.File // active segment
	seq    uint64   // sequence of the active segment
	size   int64    // bytes written to the active segment
	closed bool

	compactWG   sync.WaitGroup
	compactBusy bool
}

// Open opens (or creates) the journal in opts.Dir. A torn or corrupt
// tail on the newest segment — the signature of a crash mid-append — is
// truncated back to the last clean frame; stale compaction temporaries
// are removed. The returned journal appends to the newest segment.
func Open(opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("journal: Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating dir: %w", err)
	}
	// A crash mid-compaction leaves the temporary behind; the sealed
	// segments it was built from are still intact, so drop it.
	_ = os.Remove(filepath.Join(opts.Dir, compactTmp))

	j := &Journal{opts: opts}
	names, err := segmentFiles(opts.Dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		if err := j.openSegmentLocked(1); err != nil {
			return nil, err
		}
		return j, nil
	}
	last := names[len(names)-1]
	var seq uint64
	if _, err := fmt.Sscanf(filepath.Base(last), "journal-%d.ljr", &seq); err != nil {
		return nil, fmt.Errorf("journal: unparseable segment name %q", last)
	}
	clean, err := repairTail(last)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening active segment: %w", err)
	}
	j.file, j.seq, j.size = f, seq, clean
	return j, nil
}

// repairTail truncates path back to its clean frame prefix and returns
// the resulting size. A segment whose magic itself is damaged is reset
// to an empty segment (magic only) — its frames are unrecoverable, and
// by the determinism contract their loss costs recomputation, never
// wrong answers.
func repairTail(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("journal: reading segment: %w", err)
	}
	_, clean, derr := DecodeSegment(data)
	switch derr.(type) {
	case nil:
		return clean, nil
	case *CorruptError:
		if err := os.Truncate(path, clean); err != nil {
			return 0, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
		return clean, nil
	default: // ErrBadMagic
		if err := os.WriteFile(path, []byte(Magic), 0o644); err != nil {
			return 0, fmt.Errorf("journal: resetting damaged segment: %w", err)
		}
		return int64(len(Magic)), nil
	}
}

// openSegmentLocked creates segment seq and makes it active.
func (j *Journal) openSegmentLocked(seq uint64) error {
	f, err := os.Create(filepath.Join(j.opts.Dir, segmentName(seq)))
	if err != nil {
		return fmt.Errorf("journal: creating segment: %w", err)
	}
	if _, err := f.WriteString(Magic); err != nil {
		f.Close()
		return fmt.Errorf("journal: writing segment magic: %w", err)
	}
	j.file, j.seq, j.size = f, seq, int64(len(Magic))
	return nil
}

// Append writes one record durably: the whole frame goes out in a
// single write syscall, so a crash can only tear the frame currently
// being written — never a previously appended one. Rotation to a fresh
// segment happens when the active one exceeds MaxSegmentBytes, and each
// rotation kicks the background compactor over the sealed segments.
func (j *Journal) Append(rec Record) error {
	frame, err := appendFrame(nil, &rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: append after Close")
	}
	if j.size >= j.opts.MaxSegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := j.file.Write(frame)
	j.size += int64(n)
	if err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	if j.opts.Registry != nil {
		j.opts.Registry.Counter(obs.MetricJournalAppends).Add(1)
	}
	return nil
}

// rotateLocked seals the active segment, opens the next one, and starts
// the background compactor if it is not already running.
func (j *Journal) rotateLocked() error {
	if err := j.file.Sync(); err != nil {
		return fmt.Errorf("journal: syncing sealed segment: %w", err)
	}
	if err := j.file.Close(); err != nil {
		return fmt.Errorf("journal: closing sealed segment: %w", err)
	}
	j.file = nil
	if err := j.openSegmentLocked(j.seq + 1); err != nil {
		return err
	}
	if !j.compactBusy {
		j.compactBusy = true
		j.compactWG.Add(1)
		go func() {
			defer j.compactWG.Done()
			_ = j.Compact()
			j.mu.Lock()
			j.compactBusy = false
			j.mu.Unlock()
		}()
	}
	return nil
}

// Replay streams every surviving record, oldest first, through fn. A
// corrupt frame inside a sealed segment ends that segment's replay
// (everything before it is used, later segments still replay) — by the
// determinism contract a skipped record costs a recomputation, never a
// wrong answer. Replay of the active segment sees every record appended
// before the call.
func (j *Journal) Replay(fn func(Record) error) error {
	j.mu.Lock()
	names, err := segmentFiles(j.opts.Dir)
	j.mu.Unlock()
	if err != nil {
		return err
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return fmt.Errorf("journal: reading segment: %w", err)
		}
		recs, _, derr := DecodeSegment(data)
		if derr == ErrBadMagic {
			continue
		}
		for _, rec := range recs {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Final is one digest's state once its records are folded in journal
// order. A submit (single or batch) makes the digest pending, a
// canceled complete keeps it pending, a failed complete ends it
// (deterministic failures are neither restored nor re-run), and a done
// complete supersedes every earlier record of the digest. A later
// submit re-pends a done digest without dropping its result.
type Final struct {
	Digest string
	// Submit is the newest submit while the digest is pending, nil once
	// a done or failed complete follows it.
	Submit *Record
	// Done is the newest done complete, nil if there is none.
	Done *Record
	// DoneAt is Done's position in the folded stream: ordering by it
	// ranks digests by the recency of their results.
	DoneAt int
	// submitAt is Submit's position in the folded stream.
	submitAt int
}

// fold reduces a record stream to each digest's Final, kept in order
// of the digest's first record.
type fold struct {
	index  map[string]int
	finals []Final
	n      int // records folded so far
}

func (f *fold) add(rec Record) {
	i, ok := f.index[rec.Digest]
	if !ok {
		if f.index == nil {
			f.index = map[string]int{}
		}
		i = len(f.finals)
		f.index[rec.Digest] = i
		f.finals = append(f.finals, Final{Digest: rec.Digest})
	}
	st := &f.finals[i]
	switch {
	case rec.Kind == KindSubmit || rec.Kind == KindBatchSubmit:
		st.Submit, st.submitAt = &rec, f.n
	case rec.Canceled:
		// Still pending; the marker itself folds away.
	case rec.Failed:
		st.Submit = nil
	default: // done
		st.Done, st.DoneAt, st.Submit = &rec, f.n, nil
	}
	f.n++
}

// Finals replays every surviving record, as Replay does, and returns
// each digest's final state in order of the digest's first record. On
// a read error it returns the states folded so far with the error.
func (j *Journal) Finals() ([]Final, error) {
	var f fold
	err := j.Replay(func(rec Record) error {
		f.add(rec)
		return nil
	})
	return f.finals, err
}

// Compact rewrites the sealed segments (every segment but the active
// one) into a single segment holding the records of each digest's
// Final: its pending submit and its newest done complete. Done results
// are kept only for the newest RetainResults done digests overall, so
// the journal mirrors the serve tier's bound on finished records
// instead of growing without limit. Cancellation markers, failures and
// superseded records carry no information past the fold and are
// dropped.
//
// Record order is preserved, the temporary is fsynced and renamed into
// place, and the replaced segments are deleted afterwards; a crash at
// any point leaves a journal that replays to the same state.
func (j *Journal) Compact() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	names, err := segmentFiles(j.opts.Dir)
	if err != nil {
		j.mu.Unlock()
		return err
	}
	active := filepath.Join(j.opts.Dir, segmentName(j.seq))
	j.mu.Unlock()

	var sealed []string
	for _, name := range names {
		if name != active {
			sealed = append(sealed, name)
		}
	}
	if len(sealed) < 2 {
		return nil // nothing worth rewriting
	}

	// Sealed segments are immutable, so reading them needs no lock.
	var f fold
	for _, name := range sealed {
		data, err := os.ReadFile(name)
		if err != nil {
			return fmt.Errorf("journal: reading segment: %w", err)
		}
		recs, _, _ := DecodeSegment(data) // a torn segment yields its clean prefix, a foreign one nothing
		for _, rec := range recs {
			f.add(rec)
		}
	}

	// Expire all but the newest RetainResults done digests, ranked by
	// the position of their newest result.
	var done []*Final
	for i := range f.finals {
		if f.finals[i].Done != nil {
			done = append(done, &f.finals[i])
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].DoneAt < done[b].DoneAt })
	if drop := len(done) - j.opts.RetainResults; drop > 0 {
		for _, st := range done[:drop] {
			st.Done = nil
		}
	}

	type kept struct {
		at  int
		rec *Record
	}
	var out []kept
	for _, st := range f.finals {
		if st.Submit != nil {
			out = append(out, kept{st.submitAt, st.Submit})
		}
		if st.Done != nil {
			out = append(out, kept{st.DoneAt, st.Done})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].at < out[b].at })

	tmpPath := filepath.Join(j.opts.Dir, compactTmp)
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("journal: creating compaction temp: %w", err)
	}
	buf := []byte(Magic)
	for _, k := range out {
		if buf, err = appendFrame(buf, k.rec); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
	}
	if _, err := tmp.Write(buf); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("journal: writing compacted segment: %w", err)
	}

	// Swap under the lock so Replay never lists the directory mid-swap.
	// The compacted records land under the newest sealed name; renaming
	// is atomic, and deleting the older segments afterwards is safe —
	// until they are gone, replay just sees records the compacted
	// segment repeats, and replay is idempotent.
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := os.Rename(tmpPath, sealed[len(sealed)-1]); err != nil {
		return fmt.Errorf("journal: installing compacted segment: %w", err)
	}
	for _, name := range sealed[:len(sealed)-1] {
		if err := os.Remove(name); err != nil {
			return fmt.Errorf("journal: removing compacted segment: %w", err)
		}
	}
	if j.opts.Registry != nil {
		j.opts.Registry.Counter(obs.MetricJournalCompactions).Add(1)
	}
	return nil
}

// Close waits for any background compaction, syncs and closes the
// active segment. Safe to call more than once.
func (j *Journal) Close() error {
	j.compactWG.Wait()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.file == nil {
		return nil
	}
	err := j.file.Sync()
	if cerr := j.file.Close(); err == nil {
		err = cerr
	}
	j.file = nil
	return err
}

// Dir returns the journal's segment directory.
func (j *Journal) Dir() string { return j.opts.Dir }

// segmentFiles lists the directory's segment files, oldest first.
func segmentFiles(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, segmentGlob))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}
