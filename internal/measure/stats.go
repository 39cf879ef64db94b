package measure

import (
	"sync/atomic"

	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// engineStats holds the scheduler's instrument handles, resolved once per
// enabled registry. All fields are nil-safe counters, so a zero value is
// the disabled mode and call sites never branch on individual handles.
type engineStats struct {
	reg *obs.Registry

	tasksSerial   *obs.Counter   // i2p_engine_tasks_total{mode="serial"}
	tasksParallel *obs.Counter   // i2p_engine_tasks_total{mode="parallel"}
	steals        *obs.Counter   // i2p_engine_steals_total
	workerTasks   *obs.Histogram // i2p_engine_worker_tasks: tasks one worker ran in one FanOut
	rowsPlanned   *obs.Counter   // i2p_engine_rows_planned_total
}

// disabledEngineStats is what obsStats() returns while no registry is
// enabled: every handle nil, every increment a nil-check no-op.
var disabledEngineStats = &engineStats{}

// cachedEngineStats caches the resolution for the currently enabled
// registry; a registry swap is detected by identity and re-resolved.
var cachedEngineStats atomic.Pointer[engineStats]

// workerTasksBounds buckets per-worker run lengths: the interesting
// signal is the spread (a starving worker runs far fewer tasks than its
// initial contiguous run), not fine granularity.
var workerTasksBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

func resolveEngineStats(r *obs.Registry) *engineStats {
	tasks := r.CounterVec("i2p_engine_tasks_total",
		"Tasks executed by the FanOut scheduler, by scheduling mode.", "mode")
	return &engineStats{
		reg:           r,
		tasksSerial:   tasks.With("serial"),
		tasksParallel: tasks.With("parallel"),
		steals: r.Counter("i2p_engine_steals_total",
			"Tasks a FanOut worker claimed from another worker's run."),
		workerTasks: r.Histogram("i2p_engine_worker_tasks",
			"Tasks one worker executed in one parallel FanOut.", workerTasksBounds),
		rowsPlanned: r.Counter("i2p_engine_rows_planned_total",
			"Rows laid out by PlanRows; each runs whole on one FanRows worker."),
	}
}

// stats returns the engine's instrument handles for the enabled registry,
// or the inert zero set when observability is disabled. Cost when
// disabled: one atomic load and a nil check.
func obsStats() *engineStats {
	r := obs.Active()
	if r == nil {
		return disabledEngineStats
	}
	s := cachedEngineStats.Load()
	if s != nil && s.reg == r {
		return s
	}
	s = resolveEngineStats(r)
	cachedEngineStats.Store(s)
	return s
}

// Pre-create the scheduler families on Enable so a scrape that lands
// before the first sweep still sees them at zero.
func init() {
	obs.OnEnable(func(r *obs.Registry) { resolveEngineStats(r) })
}
