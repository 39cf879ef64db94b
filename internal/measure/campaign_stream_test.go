package measure

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
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
		// The pipeline holds at most: one unit per capture worker between
		// retain and channel send, one per channel slot, slack in the
		// reorder buffer, and the unit being folded. With the default
		// slack of one per worker that is 3*workers + 1.
		MaxRetained: func(workers int) int { return 3*workers + 1 },
	}})
}

// TestStreamingSmallSlackMatchesSerial squeezes the reorder buffer to
// a single slot at an oversubscribed width, the configuration most
// likely to force evictions through the spill store mid-run, and checks
// the Dataset still matches the serial reference exactly. Whether a
// given schedule actually evicts depends on merge completion order, so
// eviction mechanics are pinned deterministically in the dayBuffer
// tests below; this test proves that whenever they fire they are
// invisible in the output.
func TestStreamingSmallSlackMatchesSerial(t *testing.T) {
	n := parallelTestNet(t)
	reference, _ := runStreamCampaign(t, n, CampaignConfig{
		Observers: DefaultObserverFleet(8),
		StartDay:  0,
		EndDay:    30,
		Workers:   1,
	})
	for _, withStore := range []bool{false, true} {
		cfg := CampaignConfig{
			Observers: DefaultObserverFleet(8),
			StartDay:  0,
			EndDay:    30,
			Workers:   8,
		}
		if withStore {
			cfg.CheckpointDir = t.TempDir()
		}
		c, err := NewCampaign(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.streamSlack = 1
		ds, err := c.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ds, reference) {
			t.Errorf("withStore=%v: slack-1 streaming dataset differs from the serial reference", withStore)
		}
		ms := c.MemStats()
		if ms.PeakRetainedUnits > 2*8+1+1 {
			t.Errorf("withStore=%v: peak retained units %d exceeds slack-1 ceiling", withStore, ms.PeakRetainedUnits)
		}
		// retainUnit/releaseUnit must balance: a leak here means some
		// path (the evict-reload one, historically) releases twice or
		// not at all.
		if got := c.retained.Load(); got != 0 {
			t.Errorf("withStore=%v: %d retained units leaked after the run", withStore, got)
		}
		t.Logf("withStore=%v: peak=%d evicted=%d", withStore, ms.PeakRetainedUnits, ms.UnitsEvicted)
	}
}

// streamTestUnits builds canonical merged day units for a small
// campaign, exactly as both run paths would before folding.
func streamTestUnits(t *testing.T, days int) (*Campaign, [][]*netdb.RouterInfo) {
	t.Helper()
	n, err := sim.New(sim.Config{Seed: 13, Days: days, TargetDailyPeers: 200})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(n, CampaignConfig{
		Observers: DefaultObserverFleet(3),
		StartDay:  0,
		EndDay:    days,
	})
	if err != nil {
		t.Fatal(err)
	}
	units := make([][]*netdb.RouterInfo, days)
	for day := 0; day < days; day++ {
		merged := make(map[netdb.Hash]*netdb.RouterInfo)
		for _, o := range c.obs {
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
		units[day] = recs
	}
	return c, units
}

// unitFingerprint is the canonical wire encoding of a unit — the
// byte-identity yardstick for spill round-trips.
func unitFingerprint(t *testing.T, recs []*netdb.RouterInfo) []byte {
	t.Helper()
	data, err := encodeDayUnit(recs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDayBufferEvictsAndReloads pins the eviction mechanics
// deterministically: with slack 1 and days arriving furthest-first, the
// buffer must spill the largest buffered day to a private temp store,
// reload it byte-identically at its fold turn, and remove the temp
// store on close.
func TestDayBufferEvictsAndReloads(t *testing.T) {
	c, units := streamTestUnits(t, 3)
	want := make([][]byte, len(units))
	for d, recs := range units {
		want[d] = unitFingerprint(t, recs)
	}

	b := newDayBuffer(c, nil, 1)
	put := func(day int) {
		md := &mergedDay{day: day, recs: units[day], bytes: unitBytes(units[day])}
		c.retainUnit(md.bytes)
		if err := b.put(md); err != nil {
			t.Fatal(err)
		}
	}
	put(2) // buffered
	put(1) // exceeds slack: evicts day 2 (furthest)
	if !b.spilled[2] || b.units[2] != nil {
		t.Fatal("day 2 was not evicted as the furthest-out unit")
	}
	if b.tmpDir == "" {
		t.Fatal("eviction without a campaign store must create a temp spill store")
	}
	put(0) // evicts day 1 too
	if !b.spilled[1] {
		t.Fatal("day 1 was not evicted")
	}
	if got := c.MemStats().UnitsEvicted; got != 2 {
		t.Fatalf("UnitsEvicted = %d, want 2", got)
	}

	for day := 0; day < 3; day++ {
		md, reloaded, ok, err := b.take(day)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("day %d unavailable at its fold turn", day)
		}
		if wantReloaded := day != 0; reloaded != wantReloaded {
			t.Fatalf("day %d: reloaded = %v, want %v", day, reloaded, wantReloaded)
		}
		if b.inCampaignStore(reloaded) {
			t.Fatalf("day %d: unit reported in the campaign store, but there is none", day)
		}
		if got := unitFingerprint(t, md.recs); !reflect.DeepEqual(got, want[day]) {
			t.Fatalf("day %d round-tripped through the spill store with different bytes", day)
		}
		if !reloaded {
			c.releaseUnit(md.bytes, false)
		}
	}
	if got := c.retained.Load(); got != 0 {
		t.Fatalf("retained units = %d after full drain, want 0", got)
	}
	if _, _, ok, _ := b.take(3); ok {
		t.Fatal("take returned a unit that was never put")
	}

	tmp := b.tmpDir
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("temp spill store missing before close: %v", err)
	}
	b.close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp spill store survived close (err=%v)", err)
	}
}

// TestDayBufferSpillsToCampaignStore checks the other spill target: when
// the campaign has its own checkpoint store, eviction writes the unit
// there — early, but byte-identical to the fold-time write — and take
// reports fromSpill so commitDay skips the duplicate save.
func TestDayBufferSpillsToCampaignStore(t *testing.T) {
	c, units := streamTestUnits(t, 2)
	store, err := checkpoint.Open(t.TempDir(), c.checkpointManifest())
	if err != nil {
		t.Fatal(err)
	}

	b := newDayBuffer(c, store, 1)
	for day := 1; day >= 0; day-- {
		md := &mergedDay{day: day, recs: units[day], bytes: unitBytes(units[day])}
		c.retainUnit(md.bytes)
		if err := b.put(md); err != nil {
			t.Fatal(err)
		}
	}
	if b.tmpDir != "" {
		t.Fatal("buffer created a temp store despite having the campaign store")
	}
	data, ok, err := store.Load(dayKey(1))
	if err != nil || !ok {
		t.Fatalf("evicted day 1 not in campaign store (ok=%v err=%v)", ok, err)
	}
	if !reflect.DeepEqual(data, unitFingerprint(t, units[1])) {
		t.Fatal("evicted unit bytes differ from the canonical encoding")
	}
	md, reloaded, ok, err := b.take(1)
	if err != nil || !ok {
		t.Fatalf("take(1) failed (ok=%v err=%v)", ok, err)
	}
	if !reloaded || !b.inCampaignStore(reloaded) {
		t.Fatal("a unit evicted to the campaign store must come back as reloaded and already saved")
	}
	if got := unitFingerprint(t, md.recs); !reflect.DeepEqual(got, data) {
		t.Fatal("reloaded unit differs from its stored bytes")
	}
	b.close()
}

// TestStreamFoldOrderInvariant is the fold property test: whatever
// order units arrive in and however tightly the buffer is bounded —
// including spill-and-reload round-trips through the codec — draining
// the buffer in ascending day order folds to a Dataset identical to
// folding the units directly in order.
func TestStreamFoldOrderInvariant(t *testing.T) {
	const days = 10
	c, units := streamTestUnits(t, days)

	reference := NewDataset(0, days)
	db := c.net.GeoDB()
	for day, recs := range units {
		reference.accumulateDay(db, day, recs)
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		order := rng.Perm(days)
		slack := 1 + rng.Intn(3)
		b := newDayBuffer(c, nil, slack)
		ds := NewDataset(0, days)
		next := 0
		for _, day := range order {
			md := &mergedDay{day: day, recs: units[day], bytes: unitBytes(units[day])}
			c.retainUnit(md.bytes)
			if err := b.put(md); err != nil {
				t.Fatal(err)
			}
			for {
				m, _, ok, err := b.take(next)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				ds.accumulateDay(db, next, m.recs)
				next++
			}
		}
		b.close()
		if next != days {
			t.Fatalf("trial %d (order %v, slack %d): folded %d of %d days", trial, order, slack, next, days)
		}
		if !reflect.DeepEqual(ds, reference) {
			t.Fatalf("trial %d (order %v, slack %d): folded Dataset differs from in-order reference", trial, order, slack)
		}
	}
}
