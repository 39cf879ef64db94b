package sim

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// TestCoverageFactorBounds: gamma is a probability for every peer and
// observer configuration.
func TestCoverageFactorBounds(t *testing.T) {
	n := testNetwork(t, 10)
	f := func(kbps uint16, ff bool, peerSel uint16) bool {
		o := n.NewObserver(ObserverConfig{SharedKBps: int(kbps), Floodfill: ff, Seed: 1})
		p := n.Peers[int(peerSel)%len(n.Peers)]
		gamma := o.CoverageFactor(p)
		prob := o.ObserveProbability(p)
		return gamma >= 0 && gamma <= 1 && prob >= 0 && prob <= 1 && prob <= gamma+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCoverageMonotoneInBandwidth: more shared bandwidth never reduces
// coverage of any peer (the tunnel channel only grows).
func TestCoverageMonotoneInBandwidth(t *testing.T) {
	n := testNetwork(t, 10)
	low := n.NewObserver(ObserverConfig{SharedKBps: 128, Seed: 1})
	mid := n.NewObserver(ObserverConfig{SharedKBps: 1024, Seed: 1})
	high := n.NewObserver(ObserverConfig{SharedKBps: 8192, Seed: 1})
	for i := 0; i < 500; i++ {
		p := n.Peers[i*7%len(n.Peers)]
		gl, gm, gh := low.CoverageFactor(p), mid.CoverageFactor(p), high.CoverageFactor(p)
		if !(gl <= gm+1e-12 && gm <= gh+1e-12) {
			t.Fatalf("coverage not monotone in bandwidth: %v %v %v", gl, gm, gh)
		}
	}
}

// TestFloodfillStoreChannelHelpsEveryPeer: at equal bandwidth, the store
// channel means a floodfill observer covers every peer at least as well
// per-channel-math as a non-floodfill one at low bandwidth.
func TestFloodfillStoreChannelHelpsAtLowBandwidth(t *testing.T) {
	n := testNetwork(t, 10)
	ff := n.NewObserver(ObserverConfig{SharedKBps: 128, Floodfill: true, Seed: 1})
	nf := n.NewObserver(ObserverConfig{SharedKBps: 128, Floodfill: false, Seed: 1})
	for i := 0; i < 500; i++ {
		p := n.Peers[i*11%len(n.Peers)]
		if ff.CoverageFactor(p) < nf.CoverageFactor(p) {
			t.Fatalf("peer %d: low-bandwidth floodfill coverage below non-floodfill", i)
		}
	}
}

func TestObserverBandwidthClamping(t *testing.T) {
	n := testNetwork(t, 10)
	o := n.NewObserver(ObserverConfig{SharedKBps: 1 << 20})
	if o.Cfg.SharedKBps != MaxSharedKBps {
		t.Fatalf("bandwidth not clamped: %d", o.Cfg.SharedKBps)
	}
	o = n.NewObserver(ObserverConfig{SharedKBps: 0})
	if o.Cfg.SharedKBps != 128 {
		t.Fatalf("zero bandwidth not defaulted: %d", o.Cfg.SharedKBps)
	}
}

// TestObservationSubsetOfActives: observers only see peers that are
// actually online.
func TestObservationSubsetOfActives(t *testing.T) {
	n := testNetwork(t, 10)
	o := n.NewObserver(ObserverConfig{SharedKBps: 8192, Floodfill: true, Seed: 5})
	day := 5
	active := make(map[int]bool)
	for _, idx := range n.ActivePeers(day) {
		active[idx] = true
	}
	for _, idx := range o.ObserveDay(day) {
		if !active[idx] {
			t.Fatal("observed an offline peer")
		}
	}
	if got := o.ObserveDay(-1); got != nil {
		t.Fatal("out-of-range day returned observations")
	}
}

// TestObserveDayMemoized: repeated ObserveDay calls return the cached
// draw (same backing slice), including under concurrent access, and a
// fresh observer with the same seed reproduces it exactly.
func TestObserveDayMemoized(t *testing.T) {
	n := testNetwork(t, 10)
	o := n.NewObserver(ObserverConfig{SharedKBps: 8192, Floodfill: true, Seed: 9})
	day := 4
	first := o.ObserveDay(day)
	if len(first) == 0 {
		t.Fatal("observer saw nothing")
	}
	second := o.ObserveDay(day)
	if &first[0] != &second[0] || len(first) != len(second) {
		t.Fatal("repeated ObserveDay did not return the memoized slice")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := 0; d < n.Days(); d++ {
				o.ObserveDay(d)
			}
		}()
	}
	wg.Wait()
	fresh := n.NewObserver(ObserverConfig{SharedKBps: 8192, Floodfill: true, Seed: 9})
	if !reflect.DeepEqual(fresh.ObserveDay(day), first) {
		t.Fatal("memoized draw differs from a fresh observer's draw")
	}
}

// TestObserveDayMemoBounded: the memo is a bounded FIFO ring — long-lived
// observers visiting many days never retain more than observeMemoCap
// entries, and an evicted day redraws to identical content.
func TestObserveDayMemoBounded(t *testing.T) {
	n := testNetwork(t, 10)
	o := n.NewObserver(ObserverConfig{SharedKBps: 8192, Floodfill: true, Seed: 11})
	first := append([]int(nil), o.ObserveDay(4)...)
	// Visit far more days than the memo holds (out-of-window days draw
	// empty but still occupy entries, which is exactly what a long-lived
	// enumeration fleet would do).
	for d := 0; d < 3*observeMemoCap; d++ {
		o.ObserveDay(d)
	}
	if resident := o.memo.Resident(); resident > observeMemoCap {
		t.Fatalf("memo holds %d entries, cap %d", resident, observeMemoCap)
	}
	// Day 4 was evicted; the redraw must be identical (pure in seed, day).
	if _, resident := o.memo.Peek(4); resident {
		t.Fatal("day 4 survived 3x-capacity insertions")
	}
	if got := o.ObserveDay(4); !reflect.DeepEqual(got, first) {
		t.Fatal("redraw after eviction differs from the original draw")
	}
	// Resident hits stay memoized (same backing slice), so revisits
	// between evictions never redraw.
	a := o.ObserveDay(4)
	b := o.ObserveDay(4)
	if len(a) > 0 && &a[0] != &b[0] {
		t.Fatal("resident day was redrawn on a hit")
	}
}

// TestAddrScheduleMatchesAddrOnDay: the exported schedule reproduces
// AddrOnDay for every peer and day.
func TestAddrScheduleMatchesAddrOnDay(t *testing.T) {
	n := testNetwork(t, 10)
	for _, p := range n.Peers {
		sched := p.AddrSchedule()
		if p.Status != StatusKnownIP {
			if sched != nil {
				t.Fatalf("peer %d: unknown-IP peer has an address schedule", p.Index)
			}
			continue
		}
		for day := 0; day < n.Days(); day++ {
			v4, v6 := p.AddrOnDay(day)
			var want AddrSegment
			if len(sched) > 0 {
				want = sched[0]
				for _, seg := range sched[1:] {
					if seg.FromDay > day {
						break
					}
					want = seg
				}
			}
			if want.V4 != v4 || want.V6 != v6 {
				t.Fatalf("peer %d day %d: schedule (%v, %v) != AddrOnDay (%v, %v)",
					p.Index, day, want.V4, want.V6, v4, v6)
			}
		}
	}
}

// TestCollectDayWhereKeepsExactSubset: for keep-all, keep-none and
// alternating masks, CollectDayWhere returns exactly the kept records of
// CollectDay, byte for byte, so skipping a peer never shifts the draws of
// the peers after it. Every record carries Published = DayTime(day), the
// invariant the campaign's index merge relies on.
func TestCollectDayWhereKeepsExactSubset(t *testing.T) {
	n := testNetwork(t, 10)
	o := n.NewObserver(ObserverConfig{Seed: 9, SharedKBps: 2048, Floodfill: true})
	for _, day := range []int{0, 4} {
		idxs := o.ObserveDay(day)
		full := o.CollectDay(day)
		want := make([][]byte, len(full))
		statuses := map[Status]bool{}
		introduced := false
		for i, ri := range full {
			if !ri.Published.Equal(n.DayTime(day)) {
				t.Fatalf("day %d: record %d published %v, want %v", day, i, ri.Published, n.DayTime(day))
			}
			statuses[n.Peers[idxs[i]].Status] = true
			introduced = introduced || ri.Firewalled()
			b, err := ri.Encode()
			if err != nil {
				t.Fatal(err)
			}
			want[i] = b
		}
		if len(statuses) != 4 || !introduced {
			t.Fatalf("day %d: fixture covers statuses %v (introducers seen: %v), want all four", day, statuses, introduced)
		}
		masks := map[string]func(pos int) bool{
			"keep-all":  func(int) bool { return true },
			"keep-none": func(int) bool { return false },
			"even":      func(pos int) bool { return pos%2 == 0 },
			"odd":       func(pos int) bool { return pos%2 == 1 },
		}
		// keep sees peer indexes; map them back to observation order.
		pos := make(map[int]int, len(idxs))
		for i, idx := range idxs {
			pos[idx] = i
		}
		for name, mask := range masks {
			got := o.CollectDayWhere(day, func(idx int) bool { return mask(pos[idx]) }, nil)
			var kept [][]byte
			for i := range full {
				if mask(i) {
					kept = append(kept, want[i])
				}
			}
			if len(got) != len(kept) {
				t.Fatalf("day %d %s: %d records, want %d", day, name, len(got), len(kept))
			}
			for i, ri := range got {
				b, err := ri.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, kept[i]) {
					t.Fatalf("day %d %s: record %d differs from CollectDay's", day, name, i)
				}
			}
		}
	}
}
