//go:build !race

package serve

import (
	"net/http"
	"runtime"
	"testing"
)

// discardWriter is a response writer that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestWriteJSONBytes: a warm writeJSON of a finished job's status
// allocates only the boxed document, the header value and what
// encoding/json allocates per time field; no encoder and no indent
// buffer. It read 272 B; a new encoder per response read 1,291 B.
// Under the race detector a sync.Pool drops a share of its Puts (the
// encoder pool's and encoding/json's state pool's), so the test builds
// without it.
func TestWriteJSONBytes(t *testing.T) {
	st := statusDocs()[0].(JobStatus)
	w := &discardWriter{h: http.Header{}}
	writeJSON(w, http.StatusOK, st)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		writeJSON(w, http.StatusOK, st)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("writeJSON(JobStatus): %d B", per)
	if per > 340 {
		t.Errorf("writeJSON allocates %d B, want at most 340", per)
	}
}
