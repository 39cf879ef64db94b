package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// A timed pass and a set-up sample each run in a child process of the
// benchmark (the same binary, started with --child), so that each one
// starts from a fresh process as a user's command does.

// childResult is what a child process reports on its last output line.
// A set-up child fills only the set-up times.
type childResult struct {
	// SimNew is the network build: core.NewStudy (census, blocking) or
	// sim.New (handout). SvcNew is service.NewService (handout).
	SimNew    float64 `json:"sim_new"`
	SvcNew    float64 `json:"svc_new,omitempty"`
	Wall      float64 `json:"wall,omitempty"`
	CPU       float64 `json:"cpu,omitempty"`
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	Attempted int     `json:"attempted,omitempty"`
	Failed    int     `json:"failed,omitempty"`
}

// setup is the child's set-up time, the sample behind setup_s.
func (r childResult) setup() float64 { return r.SimNew + r.SvcNew }

// setupChildren is how many set-up-only child processes a timed run
// starts, so that setup_s is a median over fresh processes only.
const setupChildren = 6

// setupSamples runs n set-up-only children one after another.
func setupSamples(ctx context.Context, n int, workload string, seed uint64, scale float64) ([]childResult, error) {
	var rs []childResult
	for i := 0; i < n; i++ {
		r, err := runChild(ctx, "setup", workload, seed, scale)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// runChild runs one child of the given kind and waits for it to exit.
// Its standard error passes through, so check failures stay visible.
func runChild(ctx context.Context, kind, workload string, seed uint64, scale float64) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "--child", kind, "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--scale", strconv.FormatFloat(scale, 'g', -1, 64))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s child: %w", kind, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return childResult{}, fmt.Errorf("%s child output: %w", kind, err)
	}
	return r, nil
}

// child is a child process's body.
func child(ctx context.Context, kind, workload string, in inputs) error {
	var (
		r   childResult
		err error
	)
	batch := workload == "census" || workload == "blocking"
	switch {
	case kind == "pass" && batch:
		r, err = batchFor(workload, in).pass(ctx)
	case kind == "setup" && batch:
		var d time.Duration
		if _, d, err = batchFor(workload, in).newStudy(); err == nil {
			r = childResult{SimNew: d.Seconds()}
		}
	case kind == "setup" && workload == "handout":
		var d daemonTimes
		if _, d, err = handoutFor(in).newDaemon(nil); err == nil {
			r = childResult{SimNew: d.sim.Seconds(), SvcNew: d.svc.Seconds()}
		}
	default:
		return fmt.Errorf("no %s child for workload %q", kind, workload)
	}
	if err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
