package measure

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
	"github.com/i2pstudy/i2pstudy/internal/obs/promtest"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// runStreamCampaign runs the fixture campaign and returns both the
// Dataset and the Campaign so callers can read MemStats.
func runStreamCampaign(t testing.TB, n *sim.Network, cfg CampaignConfig) (*Dataset, *Campaign) {
	t.Helper()
	c, err := NewCampaign(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ds, c
}

// TestCampaignStreamingMatchesSerial is the streaming contract, stated
// through the shared harness: at every ladder width the campaign
// produces a Dataset identical to the serial reference while its peak
// retained-unit count stays within the structural O(workers) ceiling —
// never O(days).
func TestCampaignStreamingMatchesSerial(t *testing.T) {
	n := parallelTestNet(t)
	mk := func(workers int) CampaignConfig {
		return CampaignConfig{
			Observers: DefaultObserverFleet(8),
			StartDay:  0,
			EndDay:    30,
			Workers:   workers,
		}
	}
	enginetest.Stream(t, []enginetest.StreamCase{{
		Name: "campaign",
		RunSerial: func(t testing.TB) any {
			ds, _ := runStreamCampaign(t, n, mk(1))
			if ds.TotalPeers() == 0 {
				t.Fatal("serial reference observed nothing")
			}
			return ds
		},
		RunStreaming: func(t testing.TB, workers int) (any, int) {
			ds, c := runStreamCampaign(t, n, mk(workers))
			return ds, c.MemStats().PeakRetainedUnits
		},
		// A unit is retained only while its day holds a window slot, and
		// the window has 2*workers slots.
		MaxRetained: func(workers int) int { return 2 * workers },
	}})
}

// TestCampaignParallelFaultReleasesEverything stops a parallel campaign
// with an injected error while its window is full of merged days: the
// run must surface the injected error, release the accounting of every
// day it merged but never folded, and leave no worker behind.
func TestCampaignParallelFaultReleasesEverything(t *testing.T) {
	r, _ := withObs(t, false)
	n := parallelTestNet(t)
	c, err := NewCampaign(n, CampaignConfig{
		Observers: DefaultObserverFleet(4),
		StartDay:  0,
		EndDay:    20,
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.New(faults.Injection{Point: "measure.campaign.day", N: 3, Mode: faults.Error}))
	t.Cleanup(func() { faults.Enable(nil) })
	if _, err := c.RunContext(context.Background()); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("RunContext error = %v, want the injected fault", err)
	}
	fams, err := promtest.Parse(r.RenderText())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"i2p_measure_retained_units", "i2p_measure_resident_bytes"} {
		f := promtest.Find(fams, name)
		if f == nil || len(f.Samples) != 1 {
			t.Fatalf("%s missing from the registry", name)
		}
		if v := f.Samples[0].Value; v != 0 {
			t.Errorf("%s = %v after the failed run, want 0", name, v)
		}
	}
	if got := c.retained.Load(); got != 0 {
		t.Errorf("%d retained units leaked after the failed run", got)
	}
	// A worker's wg.Done can release RunContext a moment before the
	// goroutine itself has exited, so give stragglers a short grace.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "runParallel") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign goroutines still running after RunContext returned:\n%s", stacks)
		}
	}
}
