package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/engine"
)

// daemon is one esrd process started by the benchmark, with -workers 2 and
// -data-dir on a directory of the run (no -fsync, so the run measures the
// program rather than the disk).
type daemon struct {
	cmd  *exec.Cmd
	base string
	dir  string
	hc   *http.Client
	done chan error
}

// startDaemon starts esrd on the data dir tmp/name and returns once its
// API answers, with the time from process start to ready (which includes
// the replay of a filled data dir).
func startDaemon(path, tmp, name string, traced bool) (*daemon, time.Duration, error) {
	dir := filepath.Join(tmp, name)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-addr", addr, "-workers", "2", "-data-dir", dir}
	if traced {
		args = append(args, "-trace-iters", "256")
	}
	logf, err := os.OpenFile(filepath.Join(tmp, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{
		cmd: cmd, base: "http://" + addr, dir: dir, done: make(chan error, 1),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting esrd: %w", err)
	}
	go func() { d.done <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, 0, fmt.Errorf("esrd exited before ready: %v (log in %s.log)", err, name)
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > time.Minute {
			d.stop()
			return nil, 0, fmt.Errorf("esrd not ready after a minute")
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes too long.
func (d *daemon) stop() error {
	d.hc.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("esrd did not drain within 30s: %v", <-d.done)
	}
}

// refusedError is a request the daemon answered with an error status.
type refusedError struct {
	status int
	body   string
}

func (e *refusedError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

func (d *daemon) do(ctx context.Context, method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return &refusedError{status: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// submit posts a job and returns its id and the POST round trip.
func (d *daemon) submit(ctx context.Context, spec engine.JobSpec) (string, time.Duration, error) {
	var out struct {
		ID string `json:"id"`
	}
	t0 := time.Now()
	err := d.do(ctx, http.MethodPost, "/v1/jobs", spec, http.StatusAccepted, &out)
	return out.ID, time.Since(t0), err
}

// wait follows the job's event stream until the daemon closes it at the
// terminal state, and returns the state events.
func (d *daemon) wait(ctx context.Context, id string) ([]engine.Event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &refusedError{status: resp.StatusCode}
	}
	var states []engine.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev engine.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("event stream: %w", err)
		}
		if ev.Kind == engine.EventState {
			states = append(states, ev)
		}
	}
	return states, sc.Err()
}

// jobStatus is GET /v1/jobs/{id}; raw keeps the result as served, so a
// replayed result can be compared byte for byte with the original.
type jobStatus struct {
	ID     string           `json:"id"`
	State  string           `json:"state"`
	Error  string           `json:"error"`
	Raw    json.RawMessage  `json:"result"`
	Result *engine.Solution `json:"-"`
}

func (st *jobStatus) decodeResult() error {
	if len(st.Raw) == 0 || string(st.Raw) == "null" {
		return nil
	}
	st.Result = new(engine.Solution)
	return json.Unmarshal(st.Raw, st.Result)
}

func (d *daemon) status(ctx context.Context, id string) (jobStatus, error) {
	var st jobStatus
	if err := d.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &st); err != nil {
		return st, err
	}
	return st, st.decodeResult()
}

func (d *daemon) list(ctx context.Context) ([]jobStatus, error) {
	var sts []jobStatus
	err := d.do(ctx, http.MethodGet, "/v1/jobs", nil, http.StatusOK, &sts)
	return sts, err
}

func (d *daemon) registerMatrix(ctx context.Context, spec engine.MatrixSpec) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	err := d.do(ctx, http.MethodPost, "/v1/matrices", spec, http.StatusCreated, &out)
	return out.ID, err
}

// health is the subset of GET /v1/healthz the benchmark reads.
type health struct {
	PrepCache engine.PrepCacheStats `json:"prep_cache"`
	Store     map[string]float64    `json:"store"`
}

func (d *daemon) health(ctx context.Context) (health, error) {
	var h health
	err := d.do(ctx, http.MethodGet, "/v1/healthz", nil, http.StatusOK, &h)
	return h, err
}

func (d *daemon) trace(ctx context.Context, id string) (engine.JobTrace, error) {
	var tr engine.JobTrace
	err := d.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, http.StatusOK, &tr)
	return tr, err
}
