package measure

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// CampaignConfig describes one measurement campaign: a set of observer
// routers run over a day range, mirroring Section 5's setup of "20 routers
// ... 10 floodfill and 10 non-floodfill" for three months.
type CampaignConfig struct {
	// Observers to run. See DefaultObserverFleet.
	Observers []sim.ObserverConfig
	// StartDay (inclusive) and EndDay (exclusive) in study days.
	StartDay, EndDay int
	// SnapshotDir, when non-empty, persists one observer's netDb to disk
	// each day (routerInfo-*.dat files) exactly as the paper's harness
	// watched the Java router's netDb directory. Mostly useful for the
	// CLI tools; analyses never read it back. Each day directory appears
	// atomically (written to a temp dir, then renamed), so an interrupted
	// campaign never leaves a half-written day behind.
	SnapshotDir string `checkpoint:"-"`
	// Workers caps the number of days merged concurrently. Zero or
	// negative selects one worker per CPU; 1 selects the reference
	// serial path. Every worker count yields a byte-identical Dataset:
	// captures are deterministic per (observer seed, day), every path
	// merges a day with the same rule, and days fold in ascending order.
	Workers int `checkpoint:"-"`
	// CheckpointDir, when non-empty, spills each completed day's merged
	// observations to a checkpoint.Store so an interrupted campaign
	// resumes by loading finished days instead of recomputing them. The
	// directory is keyed by a manifest (network + fleet config hash,
	// seed, engine version); resuming against state from a different run
	// fails with a *checkpoint.MismatchError. Because accumulation
	// always proceeds in ascending day order, a resumed run's Dataset is
	// byte-identical to an uninterrupted one at any Workers value.
	CheckpointDir string `checkpoint:"-"`
}

// DefaultObserverFleet returns the paper's main fleet: count observers at
// 8 MB/s, alternating floodfill and non-floodfill modes.
func DefaultObserverFleet(count int) []sim.ObserverConfig {
	fleet := make([]sim.ObserverConfig, count)
	for i := range fleet {
		fleet[i] = sim.ObserverConfig{
			Name:       fmt.Sprintf("obs-%02d", i),
			Floodfill:  i%2 == 0,
			SharedKBps: sim.MaxSharedKBps,
			Seed:       uint64(1000 + i),
		}
	}
	return fleet
}

// Campaign binds a configuration to a network.
type Campaign struct {
	cfg CampaignConfig
	net *sim.Network
	obs []*sim.Observer

	// Retained-unit accounting (see stream.go / MemStats).
	retained     atomic.Int64
	peakRetained atomic.Int64
}

// NewCampaign validates cfg against the network.
func NewCampaign(network *sim.Network, cfg CampaignConfig) (*Campaign, error) {
	if len(cfg.Observers) == 0 {
		return nil, fmt.Errorf("measure: campaign needs at least one observer")
	}
	if cfg.StartDay < 0 || cfg.EndDay > network.Days() || cfg.StartDay >= cfg.EndDay {
		return nil, fmt.Errorf("measure: invalid day range [%d, %d) for a %d-day network",
			cfg.StartDay, cfg.EndDay, network.Days())
	}
	c := &Campaign{cfg: cfg, net: network}
	for _, ocfg := range cfg.Observers {
		c.obs = append(c.obs, network.NewObserver(ocfg))
	}
	return c, nil
}

// Observers returns the instantiated observers.
func (c *Campaign) Observers() []*sim.Observer { return c.obs }

// Run executes the campaign with a background context. See RunContext.
func (c *Campaign) Run() (*Dataset, error) {
	return c.RunContext(context.Background())
}

// RunContext executes the campaign: for every day, every observer captures
// its RouterInfos (the union of its hourly netDb scans), the records are
// merged, and the dataset accumulators are updated. The equivalent of the
// paper's daily netDb cleanup is implicit: each day starts from an empty
// observation set.
//
// With Workers != 1 the engine merges up to Workers days at once, each
// whole day on one worker, while accumulation and snapshotting of
// earlier days proceed. Accumulation itself always proceeds in
// ascending day order, so the resulting Dataset is identical to the
// serial path's.
//
// Both paths stream: completed day units fold into the fixed-size
// Dataset accumulators and are dropped immediately, and the parallel
// engine claims at most 2*Workers days ahead of the fold — campaign
// memory stays O(workers) day units instead of O(days).
func (c *Campaign) RunContext(ctx context.Context) (*Dataset, error) {
	c.retained.Store(0)
	c.peakRetained.Store(0)
	ds := NewDataset(c.cfg.StartDay, c.cfg.EndDay)
	snap, err := c.newSnapshotter()
	if err != nil {
		return nil, err
	}
	var store *checkpoint.Store
	from := c.cfg.StartDay
	if c.cfg.CheckpointDir != "" {
		store, err = checkpoint.Open(c.cfg.CheckpointDir, c.checkpointManifest())
		if err != nil {
			return nil, err
		}
		from, err = c.resume(ds, snap, store)
		if err != nil {
			return nil, err
		}
	}
	workers := resolveWorkers(c.cfg.Workers)
	if workers <= 1 {
		err = c.runSerial(ctx, ds, snap, store, from)
	} else {
		err = c.runParallel(ctx, ds, snap, store, from, workers)
	}
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// resume folds previously checkpointed days into ds and returns the
// first day still to compute. A day unit reaches disk only when that
// day is committed, and days are committed strictly in ascending order
// (both run paths fold that way), so checkpointed days form a
// contiguous prefix.
func (c *Campaign) resume(ds *Dataset, snap *snapshotter, store *checkpoint.Store) (int, error) {
	db := c.net.GeoDB()
	day := c.cfg.StartDay
	for ; day < c.cfg.EndDay; day++ {
		data, ok, err := store.Load(dayKey(day))
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		recs, err := decodeDayUnit(data)
		if err != nil {
			return 0, err
		}
		ds.accumulateDay(db, day, recs)
		// Re-write the snapshot so resumed runs leave the same SnapshotDir
		// an uninterrupted run would (cheap, idempotent, atomic).
		if err := snap.write(day, recs); err != nil {
			return 0, err
		}
	}
	return day, nil
}

// commitDay finalizes one computed day: fold into the Dataset, persist
// the netDb snapshot, spill the checkpoint unit, and cross the fault
// boundary. The checkpoint write comes last of the persistence steps,
// so a unit on disk guarantees the snapshot for that day is complete,
// and because both run paths commit in ascending day order, the units
// on disk always form a contiguous prefix of the day range.
func (c *Campaign) commitDay(ds *Dataset, db *geo.DB, snap *snapshotter, store *checkpoint.Store,
	day int, recs []*netdb.RouterInfo) error {
	ds.accumulateDay(db, day, recs)
	if err := snap.write(day, recs); err != nil {
		return err
	}
	if store != nil {
		data, err := encodeDayUnit(recs)
		if err != nil {
			return err
		}
		if err := store.Save(dayKey(day), data); err != nil {
			return err
		}
	}
	return faults.Hit("measure.campaign.day")
}

// mergeDay is the campaign's one merge rule: it merges every observer's
// capture of day, keeps the newest record per identity with the earliest
// observer in fleet order winning a Published tie, and returns the
// survivors in canonical identity order.
//
// Every record of a day carries Published = DayTime(day) (see
// sim.Observer.CollectDayWhere), so a peer's record always comes from the
// first observer whose ObserveDay contains it. mergeDay therefore merges
// indexes first, writing each peer's owner (fleet position + 1) into
// owner, and then has each observer build only the records it owns.
// owner is caller-owned scratch with one slot per network peer, cleared
// here (the daily netDb cleanup) so a worker reuses it from day to day.
func (c *Campaign) mergeDay(day int, owner []int32) []*netdb.RouterInfo {
	clear(owner)
	n := 0
	for oi, o := range c.obs {
		for _, idx := range o.ObserveDay(day) {
			if owner[idx] == 0 {
				owner[idx] = int32(oi + 1)
				n++
			}
		}
	}
	recs := make([]*netdb.RouterInfo, 0, n)
	for oi, o := range c.obs {
		recs = o.CollectDayWhere(day, func(idx int) bool { return owner[idx] == int32(oi+1) }, recs)
	}
	sortByIdentity(recs)
	return recs
}

// runSerial is the reference implementation: days in order, one merged
// day resident at a time. The parallel engine must stay byte-identical
// to it (see TestCampaignParallelMatchesSerial).
func (c *Campaign) runSerial(ctx context.Context, ds *Dataset, snap *snapshotter, store *checkpoint.Store, from int) error {
	db := c.net.GeoDB()
	owner := make([]int32, c.net.PeerCount())
	for day := from; day < c.cfg.EndDay; day++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		recs := c.mergeDay(day, owner)
		b := unitBytes(recs)
		c.retainUnit(b)
		err := c.commitDay(ds, db, snap, store, day, recs)
		c.releaseUnit(b)
		if err != nil {
			return err
		}
	}
	return nil
}

// runParallel is the concurrent campaign engine: workers merge whole
// days while this goroutine folds them in ascending order. Each worker
// takes a slot from a 2*workers window before claiming the next day
// from a shared counter, so claims are ascending and at most 2*workers
// days are ever claimed but not yet folded. The fold waits only on the
// lowest unfolded day, which is always claimed or claimable, so days
// never need to be parked anywhere but their own 1-slot channel.
func (c *Campaign) runParallel(ctx context.Context, ds *Dataset, snap *snapshotter, store *checkpoint.Store, from, workers int) error {
	db := c.net.GeoDB()
	nDays := c.cfg.EndDay - from
	if nDays <= 0 {
		return ctx.Err()
	}
	window := make(chan struct{}, 2*workers)
	merged := make([]chan []*netdb.RouterInfo, nDays)
	for d := range merged {
		merged[d] = make(chan []*netdb.RouterInfo, 1)
	}
	var claimed atomic.Int64
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tr := obs.ActiveTracer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := make([]int32, c.net.PeerCount())
			for {
				select {
				case window <- struct{}{}:
				case <-cctx.Done():
					return
				}
				d := int(claimed.Add(1) - 1)
				if d >= nDays || cctx.Err() != nil {
					return
				}
				day := from + d
				var t0 time.Duration
				if tr != nil {
					t0 = tr.Now()
				}
				recs := c.mergeDay(day, owner)
				if tr != nil {
					tr.Complete(w, "day", t0, obs.Arg{Key: "day", Val: int64(day)})
				}
				c.retainUnit(unitBytes(recs))
				merged[d] <- recs
			}
		}(w)
	}

	var err error
	for d := 0; d < nDays && err == nil; d++ {
		select {
		case recs := <-merged[d]:
			if err = ctx.Err(); err == nil {
				err = c.commitDay(ds, db, snap, store, from+d, recs)
			}
			c.releaseUnit(unitBytes(recs))
			<-window
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	// Stop the workers before waiting for them: a worker blocked on a
	// full window only leaves through cctx.
	cancel()
	wg.Wait()
	// Release the accounting of days merged but never folded.
	for _, ch := range merged {
		select {
		case recs := <-ch:
			c.releaseUnit(unitBytes(recs))
		default:
		}
	}
	return err
}

// accumulateDay folds one day's merged observations into the dataset.
// recs must be in canonical identity-sorted order: intern IDs are
// assigned on first sight, so the fold order — ascending days, sorted
// records within a day — is what makes the Dataset byte-identical across
// worker counts and resume.
func (ds *Dataset) accumulateDay(db *geo.DB, day int, recs []*netdb.RouterInfo) {
	stats := ds.day(day)
	// Per-day distinct-address counting rides the intern table's lastMark
	// slot (day+1, so zero means never) instead of a fresh per-day map.
	marker := int32(day + 1)

	for _, ri := range recs {
		stats.Peers++

		// Peer tracking.
		t := ds.track(ri.Identity, day)

		// Addresses.
		for _, addr := range ri.IPs() {
			id, g, fresh := ds.addrs.intern(db, addr)
			if fresh && !g.resolved {
				// One count per distinct unresolvable address — not per
				// (record, address, day) occurrence, which used to inflate
				// the summary once per day a bad address stayed alive.
				ds.Unresolved++
			}
			t.ips, _ = insertSorted(t.ips, id)
			if ds.addrs.lastMark[id] != marker {
				ds.addrs.lastMark[id] = marker
				stats.IPAll++
				if g.is4 {
					stats.IPv4++
				} else {
					stats.IPv6++
				}
			}
			if g.resolved {
				t.asns, _ = insertSorted(t.asns, g.asn)
				t.countries, _ = insertSorted(t.countries, g.country)
			}
		}

		// Status classification (Section 5.1 / Figure 6).
		firewalled := ri.Firewalled()
		hidden := ri.HiddenPeer()
		if ri.HasKnownIP() {
			t.EverKnownIP = true
		} else {
			stats.UnknownIP++
		}
		if firewalled {
			stats.Firewalled++
			t.EverFirewalled = true
		}
		if hidden {
			stats.Hidden++
			t.EverHidden = true
		}
		if firewalled && hidden {
			stats.Overlap++
		}

		// Capacity flags (Figure 9, Table 1).
		published := ri.Caps.PublishedClasses()
		for _, cl := range published {
			stats.ClassCounts[cl]++
			t.classMask |= 1 << cl.Index()
		}
		t.primaryCount[ri.Caps.Class.Index()]++
		if ri.Caps.Floodfill {
			stats.Floodfill++
			t.EverFloodfill = true
			for _, cl := range published {
				stats.GroupClass["floodfill"][cl]++
			}
		}
		if ri.Caps.Reachable {
			stats.Reachable++
			for _, cl := range published {
				stats.GroupClass["reachable"][cl]++
			}
		} else {
			stats.Unreachable++
			for _, cl := range published {
				stats.GroupClass["unreachable"][cl]++
			}
		}
	}
}

// snapshotter persists one day's merged netDb at a time. Day directories
// are staged under a temp name and renamed into place so readers (and
// interrupted runs) only ever see complete days.
type snapshotter struct {
	c     *Campaign
	store *netdb.Store
}

func (c *Campaign) newSnapshotter() (*snapshotter, error) {
	if c.cfg.SnapshotDir == "" {
		return &snapshotter{}, nil
	}
	if err := os.MkdirAll(c.cfg.SnapshotDir, 0o755); err != nil {
		return nil, fmt.Errorf("measure: snapshot dir: %w", err)
	}
	// A crash between stage and rename leaves a ".day-NNN.tmp" staging
	// dir behind. Sweep them at startup: they are partial by definition
	// (the rename never happened) and must never be mistaken for — or
	// left to shadow — a complete day.
	entries, err := os.ReadDir(c.cfg.SnapshotDir)
	if err != nil {
		return nil, fmt.Errorf("measure: snapshot dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".day-") && strings.HasSuffix(name, ".tmp") {
			if err := os.RemoveAll(filepath.Join(c.cfg.SnapshotDir, name)); err != nil {
				return nil, fmt.Errorf("measure: sweeping orphan snapshot %s: %w", name, err)
			}
		}
	}
	return &snapshotter{c: c, store: netdb.NewStore(false)}, nil
}

func (s *snapshotter) write(day int, recs []*netdb.RouterInfo) error {
	if s.store == nil {
		return nil
	}
	now := s.c.net.DayTime(day)
	s.store.Clear() // the daily cleanup of Section 4.3
	for _, ri := range recs {
		s.store.PutRouterInfo(ri, now)
	}
	final := filepath.Join(s.c.cfg.SnapshotDir, fmt.Sprintf("day-%03d", day))
	tmp := filepath.Join(s.c.cfg.SnapshotDir, fmt.Sprintf(".day-%03d.tmp", day))
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("measure: snapshot: %w", err)
	}
	if err := s.store.SaveDir(filepath.Join(tmp, "netDb")); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	// Same durability contract as internal/checkpoint's stage→fsync→
	// rename: fsync the staged tree before the rename and the parent
	// after it, or a power loss can leave a "complete" day-NNN directory
	// holding truncated routerInfo files (SaveDir itself never syncs).
	// The campaign checkpoint unit is written after this snapshot, so a
	// day unit on disk implies its snapshot is durable too.
	if err := checkpoint.SyncTree(tmp); err != nil {
		os.RemoveAll(tmp)
		return fmt.Errorf("measure: snapshot: %w", err)
	}
	if err := os.RemoveAll(final); err != nil {
		os.RemoveAll(tmp)
		return fmt.Errorf("measure: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.RemoveAll(tmp)
		return fmt.Errorf("measure: snapshot: %w", err)
	}
	if err := checkpoint.SyncDir(s.c.cfg.SnapshotDir); err != nil {
		return fmt.Errorf("measure: snapshot: %w", err)
	}
	return nil
}

// WriteSummary writes a short plain-text campaign summary to path. The
// write is atomic (stage + fsync + rename via checkpoint.WriteFileAtomic)
// so a crash mid-write never leaves a torn summary beside checkpointed
// artifacts that are all stage-then-rename.
func (ds *Dataset) WriteSummary(path string, started time.Time) error {
	var out string
	out += fmt.Sprintf("campaign days: [%d, %d)\n", ds.StartDay, ds.EndDay)
	out += fmt.Sprintf("distinct peers observed: %d\n", ds.TotalPeers())
	out += fmt.Sprintf("mean daily peers: %.0f\n", ds.MeanDailyPeers())
	out += fmt.Sprintf("unresolved addresses: %d\n", ds.Unresolved)
	out += fmt.Sprintf("generated: %s\n", started.UTC().Format(time.RFC3339))
	return checkpoint.WriteFileAtomic(path, []byte(out))
}
