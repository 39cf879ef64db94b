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
	SnapshotDir string
	// Workers caps the number of concurrent (day, observer) captures.
	// Zero or negative selects one worker per CPU; 1 selects the
	// reference serial path. Every worker count yields a byte-identical
	// Dataset: captures are deterministic per (observer seed, day) and
	// the merge tie-breaks by observer order, exactly as the serial loop
	// does.
	Workers int
	// CheckpointDir, when non-empty, spills each completed day's merged
	// observations to a checkpoint.Store so an interrupted campaign
	// resumes by loading finished days instead of recomputing them. The
	// directory is keyed by a manifest (network + fleet config hash,
	// seed, engine version); resuming against state from a different run
	// fails with a *checkpoint.MismatchError. Because accumulation
	// always proceeds in ascending day order, a resumed run's Dataset is
	// byte-identical to an uninterrupted one at any Workers value.
	CheckpointDir string
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
	evicted      atomic.Int64

	// streamSlack overrides the streaming reorder buffer's bound
	// (default: one unit per worker). Test hook only.
	streamSlack int
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
// With Workers != 1 the engine fans per-(day, observer) captures across a
// worker pool, merges each day's records into hash-sharded maps, and
// pipelines days: day N+1 collection overlaps day N accumulation and
// snapshotting. Accumulation itself always proceeds in ascending day
// order, so the resulting Dataset is identical to the serial path's.
//
// Both paths stream: completed day units fold into the fixed-size
// Dataset accumulators and are dropped immediately, the parallel
// engine's reorder buffer is bounded, and units arriving too far out of
// order are evicted to the checkpoint layer and reloaded at their fold
// turn — campaign memory stays O(workers) day units instead of O(days).
func (c *Campaign) RunContext(ctx context.Context) (*Dataset, error) {
	c.retained.Store(0)
	c.peakRetained.Store(0)
	c.evicted.Store(0)
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
// first day still to compute. Days are committed strictly in ascending
// order (both run paths accumulate that way), so checkpointed days form
// a contiguous prefix; a stray later unit — possible only if a past run
// used a different day range, which the manifest hash already refuses —
// is simply recomputed and overwritten.
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
// so a unit on disk guarantees the snapshot for that day is complete.
// alreadySpilled marks a unit the streaming reorder buffer evicted to
// the campaign's own checkpoint store before its fold turn: the bytes
// on disk are identical to what would be written here (same canonical
// encoding of the same records), so the save is skipped. An evicted
// unit can land on disk before earlier days have committed, but resume
// only consumes the contiguous prefix — a stray later unit is simply
// recomputed and overwritten, exactly as the resume contract documents.
func (c *Campaign) commitDay(ds *Dataset, db *geo.DB, snap *snapshotter, store *checkpoint.Store,
	day int, recs []*netdb.RouterInfo, alreadySpilled bool) error {
	ds.accumulateDay(db, day, recs)
	if err := snap.write(day, recs); err != nil {
		return err
	}
	if store != nil && !alreadySpilled {
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

// runSerial is the reference implementation: days in order, observers in
// order, one merged map per day. The parallel engine must stay
// byte-identical to it (see TestCampaignParallelMatchesSerial).
func (c *Campaign) runSerial(ctx context.Context, ds *Dataset, snap *snapshotter, store *checkpoint.Store, from int) error {
	db := c.net.GeoDB()
	// One merge map reused across days: each day starts from an empty map
	// (the daily netDb cleanup) but keeps the previous day's capacity, so
	// a long campaign stops paying rehash-and-discard per day.
	merged := make(map[netdb.Hash]*netdb.RouterInfo)
	var recs []*netdb.RouterInfo
	for day := from; day < c.cfg.EndDay; day++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Merge all observers' captures for the day, newest record wins;
		// on a Published tie the earliest observer wins.
		clear(merged)
		for _, o := range c.obs {
			for _, ri := range o.CollectDay(day) {
				prev, ok := merged[ri.Identity]
				if !ok || ri.Published.After(prev.Published) {
					merged[ri.Identity] = ri
				}
			}
		}
		// Canonicalize to identity order before folding — the fold order
		// that makes interned IDs (and checkpoint bytes) deterministic.
		recs = recs[:0]
		for _, ri := range merged {
			recs = append(recs, ri)
		}
		sortByIdentity(recs)
		// The serial path is already streaming by construction: exactly
		// one day unit is resident at a time, and it is dropped (the
		// slice reused) as soon as it is folded and spilled.
		b := unitBytes(recs)
		c.retainUnit(b)
		err := c.commitDay(ds, db, snap, store, day, recs, false)
		c.releaseUnit(b, false)
		if err != nil {
			return err
		}
	}
	return nil
}

// mergedDay is one day's deduplicated observations in canonical
// (identity-sorted) order — the one fold order both run paths share, so
// interned IDs and checkpoint bytes never depend on shard layout or map
// iteration order.
type mergedDay struct {
	day  int
	recs []*netdb.RouterInfo
	// bytes is the unit's estimated resident size (see unitBytes),
	// carried so release accounting matches retain accounting exactly.
	bytes int64
}

// runParallel is the concurrent campaign engine. Three overlapping stages:
//
//  1. capture — a FanOut pool runs CollectDay per (day, observer) and
//     partitions each capture by identity-hash shard;
//  2. merge — the worker completing a day's last capture merges its
//     shards, each shard scanning observers in order (preserving the
//     serial tie-break) on its own goroutine;
//  3. accumulate — a single consumer folds merged days into the Dataset
//     in ascending day order and writes snapshots, overlapping with
//     later days' capture and merge work.
func (c *Campaign) runParallel(ctx context.Context, ds *Dataset, snap *snapshotter, store *checkpoint.Store, from, workers int) error {
	db := c.net.GeoDB()
	nDays := c.cfg.EndDay - from
	nObs := len(c.obs)
	if nDays <= 0 {
		return ctx.Err()
	}
	shards := mergeShards(workers)

	// captures[d][o][s] holds observer o's day-d records for hash shard s.
	captures := make([][][][]*netdb.RouterInfo, nDays)
	pending := make([]atomic.Int32, nDays)
	for d := range captures {
		captures[d] = make([][][]*netdb.RouterInfo, nObs)
		pending[d].Store(int32(nObs))
	}
	// Streaming bounds the pipeline at both ends: the merged-day channel
	// holds at most one unit per worker (a worker that races too far
	// ahead of the fold blocks on send, throttling capture), and the
	// reorder buffer holds at most slack units before evicting to the
	// checkpoint layer. Together they cap resident day units at
	// 2*workers + slack + 1 regardless of campaign length.
	slack := c.streamSlack
	if slack <= 0 {
		slack = workers
	}
	mergedCh := make(chan *mergedDay, workers)

	// Shard maps are recycled across days: the merge stage flattens each
	// day into a sorted record slice and immediately clears and returns
	// its maps to the pool, so at steady state the engine holds roughly
	// (in-flight days x shards) maps instead of allocating one set per
	// day — the difference between O(days) and O(workers) map churn at
	// 30K+ peers. Recycling cannot affect results: the flatten copies the
	// record pointers out before the map is reused.
	mapPool := sync.Pool{New: func() any { return make(map[netdb.Hash]*netdb.RouterInfo) }}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	collectErr := make(chan error, 1)
	go func() {
		// Task order is day-major, so early days complete (and unblock the
		// in-order accumulator) first.
		collectErr <- FanOut(cctx, nDays*nObs, workers, func(t int) error {
			di, oi := t/nObs, t%nObs
			day := from + di
			captures[di][oi] = shardCapture(c.obs[oi].CollectDay(day), shards)
			if pending[di].Add(-1) != 0 {
				return nil
			}
			// Last capture for this day: merge its shards in parallel.
			mergedShards := make([]map[netdb.Hash]*netdb.RouterInfo, shards)
			var wg sync.WaitGroup
			for s := 0; s < shards; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					m := mapPool.Get().(map[netdb.Hash]*netdb.RouterInfo)
					for o := 0; o < nObs; o++ {
						for _, ri := range captures[di][o][s] {
							prev, ok := m[ri.Identity]
							if !ok || ri.Published.After(prev.Published) {
								m[ri.Identity] = ri
							}
						}
					}
					mergedShards[s] = m
				}(s)
			}
			wg.Wait()
			captures[di] = nil // day fully merged; release the raw captures
			// Flatten to the canonical identity-sorted slice off the
			// accumulator's critical path, recycling the shard maps now.
			n := 0
			for _, m := range mergedShards {
				n += len(m)
			}
			recs := make([]*netdb.RouterInfo, 0, n)
			for _, m := range mergedShards {
				for _, ri := range m {
					recs = append(recs, ri)
				}
				clear(m)
				mapPool.Put(m)
			}
			sortByIdentity(recs)
			md := &mergedDay{day: day, recs: recs, bytes: unitBytes(recs)}
			c.retainUnit(md.bytes)
			mergedCh <- md
			return nil
		})
		close(mergedCh)
	}()

	// In-order accumulator over the bounded reorder buffer: merged days
	// can arrive out of order, the Dataset fold must not. Each unit is
	// folded into the fixed-size accumulators and dropped — or evicted to
	// the checkpoint layer and reloaded at its turn — so the buffer never
	// blocks and the channel always drains.
	buffer := newDayBuffer(c, store, slack)
	defer buffer.close()
	next := from
	var accErr error
	for md := range mergedCh {
		if accErr != nil {
			c.releaseUnit(md.bytes, false)
			continue // failing already; drain the channel
		}
		if err := buffer.put(md); err != nil {
			accErr = err
			cancel()
			continue
		}
		for accErr == nil {
			m, reloaded, ok, err := buffer.take(next)
			if err != nil {
				accErr = err
				cancel()
				break
			}
			if !ok {
				break
			}
			if err := c.commitDay(ds, db, snap, store, next, m.recs, buffer.inCampaignStore(reloaded)); err != nil {
				accErr = err
				cancel() // stop the capture pool; drain below
			}
			m.recs = nil // folded and spilled; drop the raw records
			if !reloaded {
				// A reloaded unit's accounting was already released at
				// eviction; releasing it again would drive the gauges
				// negative.
				c.releaseUnit(m.bytes, false)
			}
			next++
		}
	}
	if err := <-collectErr; accErr == nil && err != nil {
		return err
	}
	return accErr
}

// shardCapture partitions one observer-day capture by identity hash.
func shardCapture(recs []*netdb.RouterInfo, shards int) [][]*netdb.RouterInfo {
	parts := make([][]*netdb.RouterInfo, shards)
	if shards == 1 {
		parts[0] = recs
		return parts
	}
	for s := range parts {
		parts[s] = make([]*netdb.RouterInfo, 0, len(recs)/shards+1)
	}
	for _, ri := range recs {
		s := int(ri.Identity[0]) % shards
		parts[s] = append(parts[s], ri)
	}
	return parts
}

// accumulateDay folds one day's merged observations into the dataset.
// recs must be in canonical identity-sorted order: intern IDs are
// assigned on first sight, so the fold order — ascending days, sorted
// records within a day — is what makes the Dataset byte-identical across
// worker counts, resume, and reorder-buffer evictions.
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
