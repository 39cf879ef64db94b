package measure

import (
	"fmt"
	"os"
	"sync/atomic"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// This file is the streaming-fold layer of the campaign engine: the
// bookkeeping that makes campaign memory O(active work) instead of
// O(grid). Completed day units fold into the fixed-size Dataset
// accumulators and are dropped the moment they are folded; units that
// arrive too far out of order are evicted to the checkpoint layer (a
// spilled unit is by construction reloadable, so eviction is safe even
// mid-run) and reloaded when their fold turn comes.

// MemStats reports the campaign engine's retained-unit accounting —
// the evidence that a streaming run held O(workers) day units rather
// than O(days).
type MemStats struct {
	// PeakRetainedUnits is the high-water mark of merged day units
	// simultaneously resident in memory.
	PeakRetainedUnits int
	// UnitsEvicted counts day units spilled to the checkpoint store by
	// the reorder buffer before their fold turn.
	UnitsEvicted int
}

// MemStats returns the retained-unit accounting of the campaign's most
// recent (or in-progress) run.
func (c *Campaign) MemStats() MemStats {
	return MemStats{
		PeakRetainedUnits: int(c.peakRetained.Load()),
		UnitsEvicted:      int(c.evicted.Load()),
	}
}

// unitBytes estimates the resident size of one merged day unit. It is a
// telemetry estimate (struct sizes plus per-address and per-option
// payloads), not an exact heap measurement — the retained-unit COUNT is
// the contract the tests assert; bytes give operators a scale feel.
func unitBytes(recs []*netdb.RouterInfo) int64 {
	const (
		recBase  = 176 // RouterInfo struct + slice/map headers + pointer
		addrCost = 96  // RouterAddress struct + introducer slice header
		optCost  = 48  // map entry + small strings
	)
	b := int64(len(recs)) * recBase
	for _, ri := range recs {
		b += int64(len(ri.Addresses))*addrCost + int64(len(ri.Options))*optCost
	}
	return b
}

// retainUnit records one merged day unit entering memory.
func (c *Campaign) retainUnit(bytes int64) {
	n := c.retained.Add(1)
	for {
		p := c.peakRetained.Load()
		if n <= p || c.peakRetained.CompareAndSwap(p, n) {
			break
		}
	}
	s := campaignObs()
	s.retained.Add(1)
	s.retainedPeak.Set(c.peakRetained.Load())
	s.residentBytes.Add(bytes)
}

// releaseUnit records one merged day unit leaving memory, either folded
// into the Dataset or evicted to the spill store.
func (c *Campaign) releaseUnit(bytes int64, evicted bool) {
	c.retained.Add(-1)
	s := campaignObs()
	s.retained.Add(-1)
	s.residentBytes.Add(-bytes)
	if evicted {
		c.evicted.Add(1)
		s.evicted.Inc()
	}
}

// dayBuffer is the accumulator's reorder buffer: merged days can arrive
// out of order, the Dataset fold must not. The buffer is bounded — when
// more than slack units are waiting, the furthest-out day (the one
// folded last) is encoded and evicted to a checkpoint store, and
// reloaded when its turn comes. The spill target
// is the campaign's own checkpoint store when one is configured (the
// unit would be written there at fold time anyway, so eviction just
// writes it early); otherwise a private temp store is created lazily
// and removed when the run ends.
type dayBuffer struct {
	c     *Campaign
	slack int

	units   map[int]*mergedDay
	spilled map[int]bool

	store     *checkpoint.Store
	userStore bool   // store is the campaign's CheckpointDir store
	tmpDir    string // private spill dir, removed on close
}

func newDayBuffer(c *Campaign, store *checkpoint.Store, slack int) *dayBuffer {
	return &dayBuffer{
		c:         c,
		slack:     slack,
		units:     make(map[int]*mergedDay),
		spilled:   make(map[int]bool),
		store:     store,
		userStore: store != nil,
	}
}

// put inserts a merged day, evicting furthest-out units while the
// buffer exceeds its slack. put never blocks, which is what keeps the
// bounded mergedCh deadlock-free: the accumulator can always drain.
func (b *dayBuffer) put(md *mergedDay) error {
	b.units[md.day] = md
	for len(b.units) > b.slack {
		if err := b.evictFurthest(); err != nil {
			return err
		}
	}
	return nil
}

// evictFurthest spills the largest buffered day: it is the last one the
// in-order fold will need, so evicting it frees memory for the longest
// time per spill.
func (b *dayBuffer) evictFurthest() error {
	worst := -1
	for d := range b.units {
		if d > worst {
			worst = d
		}
	}
	md := b.units[worst]
	if err := b.ensureStore(); err != nil {
		return err
	}
	data, err := encodeDayUnit(md.recs)
	if err != nil {
		return err
	}
	if err := b.store.Save(dayKey(worst), data); err != nil {
		return err
	}
	delete(b.units, worst)
	b.spilled[worst] = true
	md.recs = nil
	b.c.releaseUnit(md.bytes, true)
	return nil
}

// take returns the unit for day if it is available, reloading it from
// the spill store when it was evicted. reloaded reports a unit that
// came back from the spill store: its retained accounting was already
// released at eviction (it is folded immediately and never re-enters
// the buffer), so the caller must not release it again.
func (b *dayBuffer) take(day int) (md *mergedDay, reloaded bool, ok bool, err error) {
	if md, ok := b.units[day]; ok {
		delete(b.units, day)
		return md, false, true, nil
	}
	if !b.spilled[day] {
		return nil, false, false, nil
	}
	data, found, err := b.store.Load(dayKey(day))
	if err != nil {
		return nil, false, false, err
	}
	if !found {
		return nil, false, false, fmt.Errorf("measure: evicted day %d missing from spill store", day)
	}
	recs, err := decodeDayUnit(data)
	if err != nil {
		return nil, false, false, err
	}
	delete(b.spilled, day)
	return &mergedDay{day: day, recs: recs}, true, true, nil
}

// inCampaignStore reports whether a reloaded unit's spill bytes already
// live in the campaign's own checkpoint store (as opposed to the
// private temp store), in which case the fold must not write the unit
// again.
func (b *dayBuffer) inCampaignStore(reloaded bool) bool {
	return reloaded && b.userStore
}

// ensureStore lazily creates the private temp spill store for campaigns
// running without a CheckpointDir.
func (b *dayBuffer) ensureStore() error {
	if b.store != nil {
		return nil
	}
	dir, err := os.MkdirTemp("", "i2p-campaign-spill-")
	if err != nil {
		return fmt.Errorf("measure: spill store: %w", err)
	}
	store, err := checkpoint.Open(dir, b.c.checkpointManifest())
	if err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("measure: spill store: %w", err)
	}
	b.tmpDir = dir
	b.store = store
	return nil
}

// close releases accounting for any units stranded by an error and
// removes the private spill store. On a successful run the buffer is
// already empty.
func (b *dayBuffer) close() {
	for _, md := range b.units {
		b.c.releaseUnit(md.bytes, false)
		md.recs = nil
	}
	b.units = nil
	if b.tmpDir != "" {
		os.RemoveAll(b.tmpDir)
	}
}

// campaignStats holds the streaming engine's instrument handles; same
// lazy-resolution pattern as engineStats.
type campaignStats struct {
	reg *obs.Registry

	retained      *obs.Gauge   // i2p_measure_retained_units
	retainedPeak  *obs.Gauge   // i2p_measure_retained_units_peak
	residentBytes *obs.Gauge   // i2p_measure_resident_bytes
	evicted       *obs.Counter // i2p_measure_units_evicted_total
}

var disabledCampaignStats = &campaignStats{}

var cachedCampaignStats atomic.Pointer[campaignStats]

func resolveCampaignStats(r *obs.Registry) *campaignStats {
	return &campaignStats{
		reg: r,
		retained: r.Gauge("i2p_measure_retained_units",
			"Merged day units currently resident in campaign memory."),
		retainedPeak: r.Gauge("i2p_measure_retained_units_peak",
			"High-water mark of simultaneously resident merged day units."),
		residentBytes: r.Gauge("i2p_measure_resident_bytes",
			"Estimated bytes of merged day records resident in campaign memory."),
		evicted: r.Counter("i2p_measure_units_evicted_total",
			"Merged day units evicted to the spill store before their fold turn."),
	}
}

func campaignObs() *campaignStats {
	r := obs.Active()
	if r == nil {
		return disabledCampaignStats
	}
	s := cachedCampaignStats.Load()
	if s != nil && s.reg == r {
		return s
	}
	s = resolveCampaignStats(r)
	cachedCampaignStats.Store(s)
	return s
}

// Pre-create the campaign families on Enable so a scrape before the
// first campaign still sees them at zero.
func init() {
	obs.OnEnable(func(r *obs.Registry) { resolveCampaignStats(r) })
}
