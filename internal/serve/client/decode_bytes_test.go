package client

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"repro/internal/serve"
)

// TestStatusDecodeAllocs: a warm status answer is read into a listed
// buffer and decoded with json.Unmarshal, so it allocates only the
// decoded strings and times and the decoder's own state: no read buffer
// and no json.Decoder. It reads 9 allocations (about 430 B); a
// json.Decoder per answer read 11 (about 1,120 B). The answer list
// keeps its buffers under the race detector too.
func TestStatusDecodeAllocs(t *testing.T) {
	body := []byte(`{
  "id": "j2d8e52b1b38a40b2c03f3a6e5fb1c1d3a2a0d2e4bbf4a8c6bd6c0f1f6e3e2a71",
  "status": "done",
  "traceId": "0af7651916cd43dd8448eb211c80319c",
  "submittedAt": "2026-10-22T20:57:12.123456789Z",
  "startedAt": "2026-10-22T20:57:12.223456789Z",
  "finishedAt": "2026-10-22T20:57:12.323456789Z"
}
`)
	r := bytes.NewReader(body)
	resp := &http.Response{Body: io.NopCloser(r)}
	var st serve.JobStatus
	decode := func() {
		r.Reset(body)
		st = serve.JobStatus{}
		if err := decodeBody(resp, &st); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if st.Status != "done" || st.FinishedAt == nil {
		t.Fatalf("decoded %+v", st)
	}
	allocs := testing.AllocsPerRun(200, decode)
	t.Logf("status decode: %.1f allocations", allocs)
	if allocs > 10 {
		t.Errorf("a warm status decode allocates %.1f times, want at most 10", allocs)
	}
}
