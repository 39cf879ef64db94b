package measure

import (
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// This file is the streaming-fold layer of the campaign engine: the
// bookkeeping that shows campaign memory is O(active work) instead of
// O(grid). Completed day units fold into the fixed-size Dataset
// accumulators and are dropped the moment they are folded.

// MemStats reports the campaign engine's retained-unit accounting —
// the evidence that a streaming run held O(workers) day units rather
// than O(days).
type MemStats struct {
	// PeakRetainedUnits is the high-water mark of merged day units
	// simultaneously resident in memory.
	PeakRetainedUnits int
}

// MemStats returns the retained-unit accounting of the campaign's most
// recent (or in-progress) run.
func (c *Campaign) MemStats() MemStats {
	return MemStats{PeakRetainedUnits: int(c.peakRetained.Load())}
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
	s := campaignObs.Get()
	s.retained.Add(1)
	s.retainedPeak.Set(c.peakRetained.Load())
	s.residentBytes.Add(bytes)
}

// releaseUnit records one merged day unit leaving memory: folded into
// the Dataset, or dropped unfolded when a run stops early.
func (c *Campaign) releaseUnit(bytes int64) {
	c.retained.Add(-1)
	s := campaignObs.Get()
	s.retained.Add(-1)
	s.residentBytes.Add(-bytes)
}

// campaignStats holds the streaming engine's instrument handles.
type campaignStats struct {
	retained      *obs.Gauge // i2p_measure_retained_units
	retainedPeak  *obs.Gauge // i2p_measure_retained_units_peak
	residentBytes *obs.Gauge // i2p_measure_resident_bytes
}

var campaignObs = obs.NewLazy(func(r *obs.Registry) *campaignStats {
	return &campaignStats{
		retained: r.Gauge("i2p_measure_retained_units",
			"Merged day units currently resident in campaign memory."),
		retainedPeak: r.Gauge("i2p_measure_retained_units_peak",
			"High-water mark of simultaneously resident merged day units."),
		residentBytes: r.Gauge("i2p_measure_resident_bytes",
			"Estimated bytes of merged day records resident in campaign memory."),
	}
})
