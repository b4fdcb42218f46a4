// Package journal is the durability layer of the Litmus assessment
// service: a stdlib-only, append-only binary journal of job submissions
// and completions. The serve tier writes one record per state
// transition; on boot it replays the journal so completed results
// repopulate the result cache and unfinished jobs are re-enqueued. The
// determinism contract (canonical request digest → bit-identical result
// bytes) makes replay safe by construction: a replayed result can never
// differ from a recomputed one, so the journal only ever skips work — it
// cannot change an answer.
//
// # Segment format (version 1)
//
// A journal is a directory of segment files named journal-<seq>.ljr
// with a monotonically increasing, zero-padded sequence number
// (lexicographic order is chronological). A segment is a 4-byte magic
// "LJR1" followed by zero or more frames: compact varints, and each
// segment decodes on its own.
//
//	frame:
//	  bodyLen  uvarint      length of body in bytes
//	  body     bodyLen bytes
//	  crc      4 bytes      IEEE CRC-32 of body, little-endian
//	body:
//	  kind     1 byte       1 submit, 2 complete, 3 batch-submit
//	  flags    1 byte       bit0 degraded, bit1 failed, bit2 canceled
//	  digest   uvarint len + bytes   canonical job digest (≤ 128 bytes)
//	  payload  uvarint len + bytes   (≤ 64 MiB)
//
// The payload is the normalized request JSON for submit records and the
// canonical result bytes for complete records (the error text for
// failed completes). Each Append issues one write syscall for the whole
// frame, so a crash can only tear the tail of the active segment; Open
// truncates a torn or corrupt tail back to the last clean frame
// boundary. The decoder never panics on malformed input — truncated
// frames, bit flips and garbage all surface as a *CorruptError (or
// ErrBadMagic for a foreign file).
//
// # Rotation and compaction
//
// Append rotates to a fresh segment when the active one exceeds
// Options.MaxSegmentBytes, then kicks the background compactor: sealed
// segments are rewritten into one holding only the records of each
// digest's Final (its pending submit and its newest done complete, the
// same fold boot replay reads through Finals), and all but the newest
// Options.RetainResults completed results expire — mirroring the serve
// tier's bound on finished records. Compaction writes a temporary file and
// renames it into place, so a crash mid-compaction leaves either the
// old segments or the compacted one, never a mix; stale temporaries are
// removed on Open.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a version-1 journal segment.
const Magic = "LJR1"

// Record kinds.
type Kind uint8

const (
	// KindSubmit records a single assessment entering the queue; the
	// payload is the normalized AssessRequest JSON, sufficient to
	// recompile and re-enqueue the job on replay.
	KindSubmit Kind = 1
	// KindComplete records a terminal state for a digest: a finished
	// result (payload = canonical result bytes), a deterministic failure
	// (Failed set, payload = error text), or a shutdown cancellation
	// (Canceled set — the job is still pending work and is re-enqueued
	// on replay).
	KindComplete Kind = 2
	// KindBatchSubmit records a batch job entering the queue; the
	// payload is the BatchAssessRequest JSON.
	KindBatchSubmit Kind = 3
)

func (k Kind) valid() bool { return k >= KindSubmit && k <= KindBatchSubmit }

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindComplete:
		return "complete"
	case KindBatchSubmit:
		return "batch-submit"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Flag bits.
const (
	flagDegraded = 1 << 0
	flagFailed   = 1 << 1
	flagCanceled = 1 << 2
	flagAll      = flagDegraded | flagFailed | flagCanceled
)

// Size bounds: a digest is a prefixed sha256 hex string (65 bytes);
// payloads are request JSON or canonical result documents. The bounds
// exist so a corrupt length varint cannot demand an absurd allocation.
const (
	maxDigestLen  = 128
	maxPayloadLen = 64 << 20
	maxBodyLen    = maxPayloadLen + maxDigestLen + 32
)

// Record is one journal entry.
type Record struct {
	Kind   Kind
	Digest string
	// Degraded marks a complete whose assessment finished with isolated
	// per-KPI/per-element failures (the serve tier's degraded bit).
	Degraded bool
	// Failed marks a complete whose job failed deterministically; the
	// payload carries the error text instead of result bytes.
	Failed bool
	// Canceled marks a complete cut short by shutdown or deadline — the
	// work is still pending and replay re-enqueues it.
	Canceled bool
	// Payload is the record body: normalized request JSON for submits,
	// canonical result bytes (or error text) for completes.
	Payload []byte
}

// ErrBadMagic reports a file that is not a version-1 journal segment.
var ErrBadMagic = errors.New("journal: bad segment magic")

// CorruptError reports a malformed frame: a torn tail (partial write),
// a failed checksum, or an out-of-bounds length. Offset is the byte
// position of the first bad frame — everything before it decoded
// cleanly and is safe to keep.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: corrupt frame at offset %d: %s", e.Offset, e.Reason)
}

// appendFrame encodes rec as one frame onto buf.
func appendFrame(buf []byte, rec *Record) ([]byte, error) {
	if !rec.Kind.valid() {
		return buf, fmt.Errorf("journal: invalid record kind %d", rec.Kind)
	}
	if len(rec.Digest) > maxDigestLen {
		return buf, fmt.Errorf("journal: digest length %d exceeds %d", len(rec.Digest), maxDigestLen)
	}
	if len(rec.Payload) > maxPayloadLen {
		return buf, fmt.Errorf("journal: payload length %d exceeds %d", len(rec.Payload), maxPayloadLen)
	}
	var flags byte
	if rec.Degraded {
		flags |= flagDegraded
	}
	if rec.Failed {
		flags |= flagFailed
	}
	if rec.Canceled {
		flags |= flagCanceled
	}
	body := make([]byte, 0, 2+2*binary.MaxVarintLen64+len(rec.Digest)+len(rec.Payload))
	body = append(body, byte(rec.Kind), flags)
	body = binary.AppendUvarint(body, uint64(len(rec.Digest)))
	body = append(body, rec.Digest...)
	body = binary.AppendUvarint(body, uint64(len(rec.Payload)))
	body = append(body, rec.Payload...)

	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	return buf, nil
}

// decodeBody parses one frame body into a Record. The caller has
// already verified the checksum, so errors here mean the frame was
// written by a different (or broken) encoder, not torn by a crash.
func decodeBody(body []byte) (Record, error) {
	var rec Record
	if len(body) < 2 {
		return rec, fmt.Errorf("body too short (%d bytes)", len(body))
	}
	rec.Kind = Kind(body[0])
	if !rec.Kind.valid() {
		return rec, fmt.Errorf("invalid record kind %d", body[0])
	}
	flags := body[1]
	if flags&^byte(flagAll) != 0 {
		return rec, fmt.Errorf("unknown flag bits %#x", flags)
	}
	rec.Degraded = flags&flagDegraded != 0
	rec.Failed = flags&flagFailed != 0
	rec.Canceled = flags&flagCanceled != 0
	rest := body[2:]

	dlen, n := binary.Uvarint(rest)
	if n <= 0 || dlen > maxDigestLen || uint64(len(rest)-n) < dlen {
		return rec, fmt.Errorf("bad digest length")
	}
	rest = rest[n:]
	rec.Digest = string(rest[:dlen])
	rest = rest[dlen:]

	plen, n := binary.Uvarint(rest)
	if n <= 0 || plen > maxPayloadLen || uint64(len(rest)-n) != plen {
		return rec, fmt.Errorf("bad payload length")
	}
	rest = rest[n:]
	if plen > 0 {
		rec.Payload = append([]byte(nil), rest...)
	}
	return rec, nil
}

// DecodeSegment parses one segment's bytes. It returns every record up
// to the first malformed frame plus the byte offset of the clean prefix
// (the truncation point a repair should cut at). err is nil when the
// whole segment decoded; ErrBadMagic when the file is not a journal
// segment (offset 0); otherwise a *CorruptError positioned at the first
// bad frame. The decoder never panics, whatever the input.
func DecodeSegment(data []byte) (recs []Record, clean int64, err error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, 0, ErrBadMagic
	}
	off := int64(len(Magic))
	rest := data[len(Magic):]
	for len(rest) > 0 {
		blen, n := binary.Uvarint(rest)
		if n <= 0 {
			return recs, off, &CorruptError{Offset: off, Reason: "truncated frame length"}
		}
		if blen > maxBodyLen {
			return recs, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("frame length %d exceeds bound", blen)}
		}
		if uint64(len(rest)-n) < blen+4 {
			return recs, off, &CorruptError{Offset: off, Reason: "torn frame"}
		}
		body := rest[n : n+int(blen)]
		crc := binary.LittleEndian.Uint32(rest[n+int(blen):])
		if crc32.ChecksumIEEE(body) != crc {
			return recs, off, &CorruptError{Offset: off, Reason: "checksum mismatch"}
		}
		rec, derr := decodeBody(body)
		if derr != nil {
			return recs, off, &CorruptError{Offset: off, Reason: derr.Error()}
		}
		adv := int64(n) + int64(blen) + 4
		off += adv
		rest = rest[adv:]
		recs = append(recs, rec)
	}
	return recs, off, nil
}
