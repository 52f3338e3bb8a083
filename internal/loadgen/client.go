package loadgen

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

	"fpm/internal/jobs"
	"fpm/internal/telemetry"
)

// Client speaks the `fpm serve` job API over real HTTP. It reuses the
// jobs package's request/record types and the telemetry package's
// progress type so the wire schema is single-sourced.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:9090".
	Base string
	// HC is the underlying HTTP client; nil means a dedicated client with
	// a generous per-request timeout (the job API itself is async — only
	// submit/poll/cancel round trips ride on it).
	HC *http.Client
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{Base: base, HC: &http.Client{Timeout: 30 * time.Second}}
}

func (c *Client) hc() *http.Client {
	if c.HC != nil {
		return c.HC
	}
	return http.DefaultClient
}

// Submit POSTs a job and returns the accepted record and the HTTP status
// code. A 429 (queue full) or 503 (shutting down) is not an error at this
// layer: the harness counts rejections as an outcome, so err != nil only
// for transport failures or unexpected statuses.
func (c *Client) Submit(ctx context.Context, req jobs.JobRequest) (jobs.Job, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return jobs.Job{}, 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return jobs.Job{}, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc().Do(hreq)
	if err != nil {
		return jobs.Job{}, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var job jobs.Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			return jobs.Job{}, resp.StatusCode, err
		}
		return job, resp.StatusCode, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return jobs.Job{}, resp.StatusCode, nil
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return jobs.Job{}, resp.StatusCode, fmt.Errorf("POST /jobs: unexpected %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
}

// getJSON GETs path and decodes the JSON payload into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Job GETs one job record.
func (c *Client) Job(ctx context.Context, id int) (jobs.Job, error) {
	var job jobs.Job
	err := c.getJSON(ctx, fmt.Sprintf("/jobs/%d", id), &job)
	return job, err
}

// Cancel DELETEs a job (cooperative: the record may still read "running";
// poll Job for the terminal state).
func (c *Client) Cancel(ctx context.Context, id int) (jobs.Job, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodDelete, fmt.Sprintf("%s/jobs/%d", c.Base, id), nil)
	if err != nil {
		return jobs.Job{}, err
	}
	resp, err := c.hc().Do(hreq)
	if err != nil {
		return jobs.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return jobs.Job{}, fmt.Errorf("DELETE /jobs/%d: %d: %s", id, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var job jobs.Job
	return job, json.NewDecoder(resp.Body).Decode(&job)
}

// terminal reports whether a job state is final.
func terminal(state string) bool {
	switch state {
	case "done", "failed", "cancelled":
		return true
	}
	return false
}

// WaitTerminal polls a job until it reaches a terminal state. The poll
// interval backs off geometrically from pollMin to pollMax so short jobs
// resolve in one or two round trips without hammering long ones.
func (c *Client) WaitTerminal(ctx context.Context, id int) (jobs.Job, error) {
	const (
		pollMin = 500 * time.Microsecond
		pollMax = 50 * time.Millisecond
	)
	interval := pollMin
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return job, err
		}
		if terminal(job.State) {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-time.After(interval):
		}
		if interval *= 2; interval > pollMax {
			interval = pollMax
		}
	}
}

// Progress GETs the /progress payload.
func (c *Client) Progress(ctx context.Context) (telemetry.Progress, error) {
	var p telemetry.Progress
	err := c.getJSON(ctx, "/progress", &p)
	return p, err
}

// Metrics scrapes /metrics and returns the unlabelled samples by name
// (labelled families like fpm_worker_tasks_total are skipped — the
// harness watches scalar gauges: fpm_jobs_queued, fpm_jobs_running, ...).
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	body, err := c.MetricsText(ctx)
	if err != nil {
		return nil, err
	}
	return ParsePrometheus(body), nil
}

// MetricsText scrapes /metrics and returns the raw text exposition, for
// callers that need the labelled families (histogram buckets) too.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc().Do(hreq)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// ParsePrometheus extracts the unlabelled `name value` samples from a
// Prometheus text exposition.
func ParsePrometheus(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out
}

// WaitIdle polls the job gauges until the server has no queued or running
// job, so consecutive workloads do not bleed into each other's latency.
func (c *Client) WaitIdle(ctx context.Context) error {
	for {
		m, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		if m["fpm_jobs_queued"] == 0 && m["fpm_jobs_running"] == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}
