package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sutProc is one running SUT child process.
type sutProc struct {
	cmd  *exec.Cmd
	base string // http://host:port of the served API
	ctl  string // http://host:port of the control endpoints
	done chan error
	once sync.Once
}

// startSUT launches the benchmark binary in SUT mode and waits for its
// ready line. The child's stderr (server logs) is passed through.
func startSUT(dataDir string, traced bool) (*sutProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	args := []string{"sut", "-data-dir", dataDir}
	if traced {
		args = append(args, "-trace")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	// The SUT must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the SUT: %w", err)
	}
	p := &sutProc{cmd: cmd, done: make(chan error, 1)}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		_, _ = io.Copy(io.Discard, out) // the child prints nothing more; drain to EOF
		p.done <- cmd.Wait()
	}()
	select {
	case line, ok := <-lines:
		f := strings.Fields(line)
		if !ok || len(f) != 3 || f[0] != "ready" {
			p.kill()
			return nil, fmt.Errorf("the SUT did not start (first line %q)", line)
		}
		p.base, p.ctl = "http://"+f[1], "http://"+f[2]
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, errors.New("the SUT did not report ready within 60s")
	}
	return p, nil
}

// kill sends SIGKILL and waits until the process has ended. Calling it
// again is a no-op.
func (p *sutProc) kill() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
		<-p.done
	})
}

// conn is one client connection: an HTTP client that never opens a
// second TCP connection, so the load is exactly the stated number of
// connections.
type conn struct {
	c    *http.Client
	base string
	tr   *tracer // nil when untraced
}

func newConn(base string, tr *tracer) *conn {
	return &conn{
		c: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}, Timeout: 60 * time.Second},
		base: base,
		tr:   tr,
	}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request and reads the whole response. A traced request
// records a client span whose id travels in spanHeader. Transport
// errors are returned; any status is returned as is.
func (c *conn) do(method, path string, body []byte, name string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id, start := c.tr.begin()
	if c.tr != nil {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(id, 0, name, start)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

// getOK fetches path and fails on anything but a 200.
func (c *conn) getOK(path string) ([]byte, error) {
	st, raw, err := c.do("GET", path, nil, "")
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, st, raw)
	}
	return raw, nil
}

// waitOK polls path until it answers 200, returning that body.
func (c *conn) waitOK(path string, limit time.Duration) ([]byte, error) {
	deadline := time.Now().Add(limit)
	for {
		st, raw, err := c.do("GET", path, nil, "")
		if err == nil && st == http.StatusOK {
			return raw, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("GET %s: no 200 within %v (status %d, err %v)", path, limit, st, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// runtimeOf reads the SUT's runtime counters, forcing a GC for the
// live-heap reading when gc is set.
func runtimeOf(ctl *conn, gc bool) (runtimeStats, error) {
	path := "/runtime"
	if gc {
		path += "?gc=1"
	}
	raw, err := ctl.getOK(path)
	if err != nil {
		return runtimeStats{}, err
	}
	var st runtimeStats
	return st, json.Unmarshal(raw, &st)
}

// promMetrics is a /metrics scrape: every un-quantiled series summed
// over its label sets, by metric name.
type promMetrics map[string]float64

func scrape(c *conn) (promMetrics, error) {
	raw, err := c.getOK("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(raw)
}

func parseMetrics(raw []byte) (promMetrics, error) {
	m := promMetrics{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "quantile=") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		m[name] += v
	}
	return m, nil
}

// engineStats is the engine block of /v1/stats (Clusterer.Stats), kept
// as raw bytes for the byte-identity gate and decoded for the core and
// index counters.
type engineStats struct {
	Points               int64
	CellsCreated         int64
	ActiveCells          int
	InactiveCells        int
	DependencyCandidates int64
	FilteredByDensity    int64
	FilteredByTriangle   int64
	SeedCandidates       int64
	SpeculativeRoutes    int64
	SpeculationMisses    int64
}

func statsOf(c *conn) (raw json.RawMessage, st engineStats, err error) {
	body, err := c.getOK("/v1/stats")
	if err != nil {
		return nil, st, err
	}
	var resp struct {
		Engine json.RawMessage `json:"engine"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return resp.Engine, st, json.Unmarshal(resp.Engine, &st)
}
