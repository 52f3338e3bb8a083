package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The benchmark speaks the `fpm serve` job API with its own client and
// wire types, so a change to the repository's load generator cannot move
// the benchmark's measurements.

type jobRequest struct {
	Path       string `json:"path"`
	Algo       string `json:"algo"`
	Patterns   string `json:"patterns,omitempty"`
	MinSupport int    `json:"min_support"`
	Workers    int    `json:"workers,omitempty"`
}

type jobRecord struct {
	ID              int       `json:"id"`
	State           string    `json:"state"`
	Error           string    `json:"error"`
	Itemsets        int       `json:"itemsets"`
	Submitted       time.Time `json:"submitted"`
	Started         time.Time `json:"started"`
	Finished        time.Time `json:"finished"`
	ServedFromCache bool      `json:"served_from_cache"`
}

// client holds one keep-alive connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// submit POSTs a job and returns the accepted record and the status code;
// a 429 or 503 is a status, not an error.
func (c *client) submit(ctx context.Context, req jobRequest) (jobRecord, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return jobRecord{}, 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return jobRecord{}, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return jobRecord{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
		return jobRecord{}, resp.StatusCode, nil
	}
	var rec jobRecord
	err = json.NewDecoder(resp.Body).Decode(&rec)
	return rec, resp.StatusCode, err
}

func (c *client) get(ctx context.Context, path string) (*http.Response, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return resp, nil
}

// wait polls the job until it is terminal, starting at 0.25 ms and
// doubling the interval up to 4 ms, and returns the record and when the
// client saw it.
func (c *client) wait(ctx context.Context, id int) (jobRecord, time.Time, error) {
	const pollMin, pollMax = 250 * time.Microsecond, 4 * time.Millisecond
	path := "/jobs/" + strconv.Itoa(id)
	for interval := pollMin; ; interval = min(2*interval, pollMax) {
		select {
		case <-ctx.Done():
			return jobRecord{}, time.Time{}, ctx.Err()
		case <-time.After(interval):
		}
		resp, err := c.get(ctx, path)
		if err != nil {
			return jobRecord{}, time.Time{}, err
		}
		var rec jobRecord
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil {
			return jobRecord{}, time.Time{}, err
		}
		switch rec.State {
		case "done", "failed", "cancelled":
			return rec, time.Now(), nil
		}
	}
}

// scrape GETs /metrics and returns every sample keyed by its name with
// labels, e.g. `fpm_cache_result_hits_total{kind="exact"}`.
func (c *client) scrape(ctx context.Context) (map[string]float64, error) {
	resp, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
