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

// client is the benchmark's single closed-loop HTTP client.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// fetch sends one request and returns the full response body, failing
// on any non-2xx status — an admission refusal (429/503) included, so a
// refused op counts as a failed one.
func (c *client) fetch(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// do is fetch plus JSON decoding of the reply into out (nil skips it).
func (c *client) do(ctx context.Context, method, url string, body []byte, out any) error {
	data, err := c.fetch(ctx, method, url, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, url, err)
	}
	return nil
}

// sseEvent is one server-sent event.
type sseEvent struct {
	name string
	data []byte
	at   time.Duration // since the stream was requested
}

// follow reads an SSE stream until an event named stop arrives (or the
// stream ends), calling on for each event.
func (c *client) follow(ctx context.Context, url, stop string, on func(sseEvent)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = append(ev.data, strings.TrimPrefix(line, "data: ")...)
		case line == "":
			if ev.name == "" && ev.data == nil {
				continue
			}
			ev.at = time.Since(start)
			on(ev)
			if ev.name == stop {
				return nil
			}
			ev = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return fmt.Errorf("GET %s: stream ended before %q", url, stop)
}

// scrape sums every series of each named metric in a daemon's
// Prometheus exposition (labels collapsed). Absent metrics read 0.
func (c *client) scrape(ctx context.Context, base string, names ...string) (map[string]float64, error) {
	data, err := c.fetch(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			// Label values may hold spaces: the value is the last field.
			name = line[:i]
			rest = line[strings.LastIndexByte(line, ' ')+1:]
		}
		if !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, nil
}
