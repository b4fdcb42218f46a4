package client

// The answer list (client.go): buffers listed by earlier answers, filled
// with stale JSON, never reach a decoded answer. Named TestPool* so
// `make race-pools` repeats it under the race detector.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// poisonAnswers takes up to four buffers off the answer list, or makes
// them, and lists them again holding a stale answer, unread bytes and
// all. A read that skipped its reset then decodes the stale answer, or
// fails on the bytes after it.
func poisonAnswers() {
	var bufs []*bytes.Buffer
	for i := 0; i < 4; i++ {
		b, ok := answers.Take()
		if !ok {
			b = new(bytes.Buffer)
		}
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		b.Reset()
		b.WriteString(`{"id":"jstale","status":"failed","error":"stale answer"}`)
		answers.Put(b)
	}
}

// TestPoolAnswersMatchGolden assesses the golden request through the
// client on poisoned answer buffers, from several goroutines: every
// submit and status answer decodes right, and every result equals the
// committed fixture.
func TestPoolAnswersMatchGolden(t *testing.T) {
	c, _ := newService(t, serve.Config{})
	c.PollInterval = time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	want, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "golden_assessment.json"))
	if err != nil {
		t.Fatal(err)
	}
	poisonAnswers()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				poisonAnswers()
				got, err := c.Assess(ctx, goldenRequest(t))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(append(got, '\n'), want) {
					t.Errorf("result on poisoned answer buffers differs from the fixture:\n%s", got)
				}
			}
		}()
	}
	wg.Wait()
	poisonAnswers()
	sub, err := c.Submit(ctx, goldenRequest(t))
	if err != nil || sub.Status != "done" || !sub.Cached {
		t.Fatalf("submit on poisoned answer buffers: %+v (%v), want a cached done job", sub, err)
	}
	poisonAnswers()
	st, err := c.Job(ctx, sub.ID)
	if err != nil || st.ID != sub.ID || st.Status != "done" || st.Error != "" {
		t.Fatalf("status on poisoned answer buffers: %+v (%v), want job %s done", st, err, sub.ID)
	}
}
