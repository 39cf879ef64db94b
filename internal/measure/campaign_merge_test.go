package measure

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// referenceMergeDay is the merge rule stated on records, as the campaign
// ran it before the index merge: every observer materializes its full
// capture, and a map keeps the newest record per identity, the earliest
// observer in fleet order winning a Published tie.
func referenceMergeDay(observers []*sim.Observer, day int) []*netdb.RouterInfo {
	merged := make(map[netdb.Hash]*netdb.RouterInfo)
	for _, o := range observers {
		for _, ri := range o.CollectDay(day) {
			prev, ok := merged[ri.Identity]
			if !ok || ri.Published.After(prev.Published) {
				merged[ri.Identity] = ri
			}
		}
	}
	recs := make([]*netdb.RouterInfo, 0, len(merged))
	for _, ri := range merged {
		recs = append(recs, ri)
	}
	sortByIdentity(recs)
	return recs
}

// TestMergeDayMatchesReferenceMerge pins the campaign's day-unit bytes to
// the record-level merge rule: for every day, the unit mergeDay produces
// and the unit the campaign spills at workers 1 and 4 both equal the
// encoding of referenceMergeDay. The fixture has known-IP, firewalled,
// toggling and hidden peers, non-empty introducer pools, and peers won by
// later observers, so a skipped record that drew differently from a
// built one would shift the bytes of the records after it.
func TestMergeDayMatchesReferenceMerge(t *testing.T) {
	const days = 6
	n, err := sim.New(sim.Config{Seed: 11, Days: days, TargetDailyPeers: 800})
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{Observers: DefaultObserverFleet(8), StartDay: 0, EndDay: days}
	ref, err := NewCampaign(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, days)
	for day := range want {
		recs := referenceMergeDay(ref.Observers(), day)
		var knownIP, firewalled, toggling, hidden int
		for _, ri := range recs {
			switch {
			case ri.HasKnownIP():
				knownIP++
			case ri.Firewalled() && ri.Caps.Hidden:
				toggling++
			case ri.Firewalled():
				firewalled++
			case ri.HiddenPeer():
				hidden++
			}
		}
		if knownIP == 0 || firewalled == 0 || toggling == 0 || hidden == 0 || len(n.Introducers(day)) == 0 {
			t.Fatalf("day %d: fixture lacks a peer type (known-IP %d, firewalled %d, toggling %d, hidden %d, introducers %d)",
				day, knownIP, firewalled, toggling, hidden, len(n.Introducers(day)))
		}
		if first := len(ref.Observers()[0].ObserveDay(day)); first == len(recs) {
			t.Fatalf("day %d: the first observer wins every peer; later observers never skip", day)
		}
		if want[day], err = encodeDayUnit(recs); err != nil {
			t.Fatal(err)
		}
	}

	owner := make([]int32, n.PeerCount())
	for day := range want {
		got, err := encodeDayUnit(ref.mergeDay(day, owner))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[day]) {
			t.Fatalf("day %d: mergeDay unit differs from the reference merge", day)
		}
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			wcfg := cfg
			wcfg.Workers = workers
			wcfg.CheckpointDir = t.TempDir()
			c, err := NewCampaign(n, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			store, err := checkpoint.Open(wcfg.CheckpointDir, c.checkpointManifest())
			if err != nil {
				t.Fatal(err)
			}
			for day := range want {
				got, ok, err := store.Load(dayKey(day))
				if err != nil || !ok {
					t.Fatalf("day %d: unit not spilled (ok=%v, err=%v)", day, ok, err)
				}
				if !bytes.Equal(got, want[day]) {
					t.Fatalf("day %d: spilled unit differs from the reference merge", day)
				}
			}
		})
	}
}
