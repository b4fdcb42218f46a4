package journal

// FuzzJournalReplay fuzzes the segment decoder with arbitrary bytes —
// torn writes, bit flips, truncated segments, hostile lengths. The
// decoder must never panic: every input yields records plus either nil,
// ErrBadMagic, or a *CorruptError. The clean offset must be an exact
// repair point: truncating there and decoding again reproduces the same
// records with no error, which is precisely what Open's tail repair
// relies on after a crash.

import (
	"bytes"
	"testing"
)

// fuzzSegment builds a well-formed segment from recs, for seeding.
func fuzzSegment(recs ...Record) []byte {
	buf := []byte(Magic)
	for i := range recs {
		var err error
		if buf, err = appendFrame(buf, &recs[i]); err != nil {
			panic(err)
		}
	}
	return buf
}

func FuzzJournalReplay(f *testing.F) {
	full := fuzzSegment(
		Record{Kind: KindSubmit, Digest: "jaaa", Payload: []byte(`{"change":"a"}`)},
		Record{Kind: KindComplete, Digest: "jaaa", Degraded: true, Payload: []byte(`{"result":1}`)},
		Record{Kind: KindComplete, Digest: "jbbb", Failed: true, Payload: []byte("boom")},
		Record{Kind: KindComplete, Digest: "jccc", Canceled: true},
		Record{Kind: KindBatchSubmit, Digest: "bddd", Payload: []byte(`{"changes":[]}`)},
	)
	f.Add(full)                                        // clean segment
	f.Add(full[:len(full)-3])                          // torn tail
	f.Add(full[:len(Magic)])                           // empty segment
	f.Add([]byte("LFR1whatever"))                      // foreign magic (another format)
	f.Add([]byte{})                                    // empty file
	f.Add(append(bytes.Clone(full), 0xff, 0xff, 0xff)) // trailing garbage
	flipped := bytes.Clone(full)
	flipped[len(flipped)/2] ^= 0x20 // bit flip mid-segment
	f.Add(flipped)
	// Hostile frame length: a huge uvarint must be bounded, not allocated.
	f.Add(append([]byte(Magic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	// Valid frame checksum over an invalid body (unknown kind).
	bad := fuzzSegment(Record{Kind: KindSubmit, Digest: "jeee"})
	bad[len(Magic)+1] = 0x77 // corrupt the kind byte inside the body
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, err := DecodeSegment(data)
		switch e := err.(type) {
		case nil:
			if clean != int64(len(data)) {
				t.Fatalf("clean decode stopped at %d of %d bytes", clean, len(data))
			}
		case *CorruptError:
			if e.Offset != clean {
				t.Fatalf("corrupt offset %d != clean offset %d", e.Offset, clean)
			}
			if clean < int64(len(Magic)) || clean > int64(len(data)) {
				t.Fatalf("clean offset %d outside [%d, %d]", clean, len(Magic), len(data))
			}
		default:
			if err != ErrBadMagic {
				t.Fatalf("unexpected error type %T: %v", err, err)
			}
			if clean != 0 || len(recs) != 0 {
				t.Fatalf("ErrBadMagic with clean=%d recs=%d", clean, len(recs))
			}
			return
		}

		// The clean prefix is an exact repair point: truncating there and
		// decoding again must be error-free and yield the same records.
		again, againClean, err := DecodeSegment(data[:clean])
		if err != nil {
			t.Fatalf("decode of clean prefix failed: %v", err)
		}
		if againClean != clean || len(again) != len(recs) {
			t.Fatalf("repair not idempotent: %d bytes %d recs, want %d bytes %d recs",
				againClean, len(again), clean, len(recs))
		}
		for i := range recs {
			if recs[i].Kind != again[i].Kind || recs[i].Digest != again[i].Digest ||
				!bytes.Equal(recs[i].Payload, again[i].Payload) ||
				recs[i].Degraded != again[i].Degraded ||
				recs[i].Failed != again[i].Failed ||
				recs[i].Canceled != again[i].Canceled {
				t.Fatalf("record %d differs after repair", i)
			}
		}

		// Decoded records survive a re-encode/decode round trip. (Not a
		// byte-for-byte check: the decoder tolerates non-minimal varint
		// encodings that the encoder would normalize.)
		reenc := []byte(Magic)
		for i := range recs {
			var eerr error
			if reenc, eerr = appendFrame(reenc, &recs[i]); eerr != nil {
				t.Fatalf("re-encoding decoded record %d: %v", i, eerr)
			}
		}
		rt, _, rerr := DecodeSegment(reenc)
		if rerr != nil || len(rt) != len(recs) {
			t.Fatalf("round trip: %d records, err %v; want %d records", len(rt), rerr, len(recs))
		}
	})
}
