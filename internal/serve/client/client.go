// Package client is the typed Go client for the Litmus assessment
// service (internal/serve). It wraps the JSON API in three primitives —
// Submit, Job, Result — plus Assess, a blocking helper that submits,
// rides out 429 backpressure using the server's Retry-After hint, polls
// until the job finishes, and returns the canonical assessment
// document.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"repro/internal/freelist"
	"repro/internal/serve"
)

// Client talks to one assessment service instance.
type Client struct {
	baseURL string
	httpc   *http.Client

	// PollInterval is the job-status polling cadence used by Assess
	// (default 50ms).
	PollInterval time.Duration
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8080"). A nil httpc uses http.DefaultClient.
func New(baseURL string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Client{
		baseURL:      strings.TrimRight(baseURL, "/"),
		httpc:        httpc,
		PollInterval: 50 * time.Millisecond,
	}
}

// BaseURL returns the service base URL this client targets — the
// identity shard routing uses for ring membership.
func (c *Client) BaseURL() string { return c.baseURL }

// APIError is a non-2xx response from the service.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's backoff hint on 429 responses; zero
	// otherwise.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.StatusCode, e.Message)
}

// IsBackpressure reports whether err is the service shedding load (429
// queue-full); callers should wait err.RetryAfter and resubmit.
func IsBackpressure(err error) bool {
	apiErr, ok := err.(*APIError)
	return ok && apiErr.StatusCode == http.StatusTooManyRequests
}

func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	var body serve.APIError
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil {
		apiErr.Message = body.Error
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	return apiErr
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.httpc.Do(req)
}

// Submit posts an assessment request. A 200/202 yields the submit
// response (Cached reports a result-cache or in-flight dedup hit); any
// other status is an *APIError — 429 carries the Retry-After hint.
func (c *Client) Submit(ctx context.Context, req *serve.AssessRequest) (*serve.SubmitResponse, error) {
	var sub serve.SubmitResponse
	if err := c.post(ctx, "/v1/assess", req, &sub); err != nil {
		return nil, err
	}
	return &sub, nil
}

// SubmitBatch posts a changelog to POST /v1/assess/batch. The response
// carries the batch job id plus per-entry digests and cached flags.
func (c *Client) SubmitBatch(ctx context.Context, req *serve.BatchAssessRequest) (*serve.BatchSubmitResponse, error) {
	var sub serve.BatchSubmitResponse
	if err := c.post(ctx, "/v1/assess/batch", req, &sub); err != nil {
		return nil, err
	}
	return &sub, nil
}

// post sends req as JSON to path and decodes a 200/202 response body
// into out; any other status is an *APIError.
func (c *Client) post(ctx context.Context, path string, req, out any) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("encoding request: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return decodeAPIError(resp)
	}
	if err := decodeBody(resp, out); err != nil {
		return fmt.Errorf("decoding %s response: %w", path, err)
	}
	return nil
}

// answerListBytes bounds the list of answer buffers. Measured peaks
// (seed 1, 8 s runs): 16,424 B on changelog-batch (a 100-entry batch's
// submit answer) and 1,104 B (two status buffers) on fresh-world,
// shared-world and routed-mixed.
const answerListBytes = 64 << 10

// answers is the process-wide list of the buffers every client reads
// submit and status answers into, so a poll reads into memory an
// earlier one grew. A buffer beyond the budget (a large batch's submit
// answer) is dropped.
var answers = freelist.New(answerListBytes, func(b *bytes.Buffer) int {
	return int(unsafe.Sizeof(*b)) + b.Cap()
})

// decodeBody reads resp's body into a listed buffer and decodes it into
// out. Decoding copies every string out of the buffer, so out keeps
// nothing that points into it.
func decodeBody(resp *http.Response, out any) error {
	buf, ok := answers.Take()
	if !ok {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	_, err := buf.ReadFrom(resp.Body)
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), out)
	}
	answers.Put(buf)
	return err
}

// AssessBatch submits a changelog and blocks until the batch job
// finishes, returning the decoded per-entry result document. Queue-full
// 429s are retried after the server's Retry-After hint.
func (c *Client) AssessBatch(ctx context.Context, req *serve.BatchAssessRequest) (*serve.BatchResultDoc, error) {
	raw, err := c.await(ctx, "/v1/assess/batch", req)
	if err != nil {
		return nil, err
	}
	var doc serve.BatchResultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("decoding batch result: %w", err)
	}
	return &doc, nil
}

// Ready probes GET /readyz. nil means the node is accepting work; a
// non-200 (e.g. 503 while the journal is still replaying) returns an
// *APIError carrying any Retry-After hint, and transport failures
// surface as-is — so callers can back off exactly the way Assess does
// on 429.
func (c *Client) Ready(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/readyz", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	return decodeAPIError(resp)
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (*serve.JobStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	var st serve.JobStatus
	if err := decodeBody(resp, &st); err != nil {
		return nil, fmt.Errorf("decoding job status: %w", err)
	}
	return &st, nil
}

// Result fetches a finished job's canonical assessment document, as raw
// bytes (the service's golden wire format).
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	return readBody(resp)
}

// maxSizedBody bounds the body readBody reads into one buffer of its
// announced length; a longer one is read as if of unknown length.
const maxSizedBody = 64 << 20

// readBody reads resp's body whole. A body of known length (the service
// sets Content-Length on results) up to maxSizedBody is read into one
// buffer of exactly that size, and a shorter body is an error; any
// other is read by io.ReadAll, whose buffer grows as it reads.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxSizedBody {
		buf := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return nil, fmt.Errorf("reading %d-byte result: %w", n, err)
		}
		return buf, nil
	}
	return io.ReadAll(resp.Body)
}

// Assess submits req and blocks until the assessment finishes,
// returning the canonical result bytes. Queue-full 429s are retried
// after the server's Retry-After hint; job status is polled at
// PollInterval. Cancel ctx to give up.
func (c *Client) Assess(ctx context.Context, req *serve.AssessRequest) ([]byte, error) {
	return c.await(ctx, "/v1/assess", req)
}

// await is the submit-and-wait path of Assess and AssessBatch: it posts
// req to path until the service accepts it, waiting out each queue-full
// 429 for the server's Retry-After hint, then polls the job's status at
// PollInterval and returns the finished job's result bytes.
func (c *Client) await(ctx context.Context, path string, req any) ([]byte, error) {
	var sub struct {
		ID string `json:"id"`
	}
	for {
		err := c.post(ctx, path, req, &sub)
		if err == nil {
			break
		}
		apiErr, ok := err.(*APIError)
		if !ok || apiErr.StatusCode != http.StatusTooManyRequests {
			return nil, err
		}
		wait := apiErr.RetryAfter
		if wait <= 0 {
			wait = time.Second
		}
		if err := sleepCtx(ctx, wait); err != nil {
			return nil, err
		}
	}
	for {
		st, err := c.Job(ctx, sub.ID)
		if err != nil {
			return nil, err
		}
		switch st.Status {
		case "done":
			return c.Result(ctx, sub.ID)
		case "failed":
			return nil, fmt.Errorf("job %s failed: %s", sub.ID, st.Error)
		}
		if err := sleepCtx(ctx, c.PollInterval); err != nil {
			return nil, err
		}
	}
}

// sleepCtx sleeps for d or until ctx is done, returning ctx.Err() on
// early wake. Unlike time.After — whose timer lingers until it fires
// even after the select has moved on — the timer is released
// immediately, so a tight retry loop under a long Retry-After hint does
// not accumulate pending timers.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
