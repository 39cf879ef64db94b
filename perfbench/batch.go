package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/measure"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/obs/promtest"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// This file holds the two batch workloads. census runs what i2pmeasure
// runs, blocking what i2pcensor runs; one pass is a fresh core.Study
// (the CLI's set-up) followed by RunAll over the CLI's experiment set.

// batchSpec is one batch workload.
type batchSpec struct {
	name  string
	scale float64 // network size relative to the paper's 30.5K daily peers
	days  int
	ids   func() []string
	// probes times the workload's layers one call at a time for the
	// traced run.
	probes func(ctx context.Context, b batchRun, sp *spans, v values) error
}

// The census pass is the population campaign plus every analysis built
// on it; its cost is record materialisation and the campaign merge.
var censusSpec = batchSpec{
	name:  "census",
	scale: 0.3,
	days:  45,
	ids: func() []string {
		ids := append(core.ExperimentIDs(core.CategoryPopulation), core.ExperimentIDs(core.CategoryAblation)...)
		sort.Strings(ids)
		return ids
	},
	probes: censusProbes,
}

// The blocking pass never runs the main campaign: its cost is the censor
// sweep, the eepsite crawl and the engine's row scheduling.
var blockingSpec = batchSpec{
	name:  "blocking",
	scale: 1.0,
	days:  45,
	ids: func() []string {
		return append(core.ExperimentIDs(core.CategoryCensorship), core.ExperimentIDs(core.CategoryDistribution)...)
	},
	probes: blockingProbes,
}

// censusGridIDs are the census experiments that draw their own observer
// grids instead of reading the main campaign's dataset.
var censusGridIDs = []string{"ablation-flood-fanout", "ablation-observer-mix", "figure-02", "figure-03", "figure-04"}

// batchRun binds a spec to one invocation's inputs.
type batchRun struct {
	spec    batchSpec
	seed    uint64
	scale   float64
	seconds time.Duration
	golden  bool // the inputs are the ones the goldens were recorded on
}

func (b batchRun) options() core.Options {
	opts := core.DefaultOptions()
	opts.Seed = b.seed
	opts.Days = b.spec.days
	opts.TargetDailyPeers = int(b.scale * 30500)
	opts.Workers = workers
	return opts
}

func (b batchRun) newStudy() (*core.Study, time.Duration, error) {
	t0 := time.Now()
	s, err := core.NewStudy(b.options())
	return s, time.Since(t0), err
}

func (b batchRun) inputSize() string {
	opts := b.options()
	return fmt.Sprintf("%d daily peers (scale %.2f), %d days, %d experiments",
		opts.TargetDailyPeers, b.scale, opts.Days, len(b.spec.ids()))
}

// minPasses is the fewest passes a timed run makes, so each reported
// figure is a median of at least three.
const minPasses = 3

// timed runs passes, each in a fresh child process as the CLI would
// run, until the run's time is spent, and reports the medians of the
// end-to-end metrics. A process per pass matters: the program caches
// per-network state for the process lifetime, so a second network in
// one process would add to the first one's peak RSS. setup_s is the
// median over the passes' set-ups and setupChildren set-up-only
// children, each the first set-up of a fresh process.
func (b batchRun) timed(ctx context.Context) (values, int, int, error) {
	var setups, walls, cpus, rss, took []float64
	rs, err := setupSamples(ctx, setupChildren, b.spec.name, b.seed, b.scale)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, r := range rs {
		setups = append(setups, r.setup())
	}
	attempted, failed := 0, 0
	start := time.Now()
	for len(walls) < minPasses || time.Since(start)+time.Duration(median(took)*float64(time.Second)) <= b.seconds {
		t0 := time.Now()
		r, err := runChild(ctx, "pass", b.spec.name, b.seed, b.scale)
		if err != nil {
			return nil, 0, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
		setups = append(setups, r.setup())
		walls = append(walls, r.Wall)
		cpus = append(cpus, r.CPU)
		rss = append(rss, r.PeakRSSMB)
		attempted += r.Attempted
		failed += r.Failed
	}
	return values{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"peak_rss_mb": median(rss),
	}, attempted, failed, nil
}

// pass is one child process's work: set up, run the CLI's experiment
// set once and check it.
func (b batchRun) pass(ctx context.Context) (childResult, error) {
	ids := b.spec.ids()
	study, setup, err := b.newStudy()
	if err != nil {
		return childResult{}, err
	}
	u0, t0 := readUsage(), time.Now()
	results, err := study.RunAll(ctx, ids...)
	wall, u1 := time.Since(t0), readUsage()
	return childResult{
		SimNew:    setup.Seconds(),
		Wall:      wall.Seconds(),
		CPU:       (u1.cpu - u0.cpu).Seconds(),
		PeakRSSMB: peakRSSMB(),
		Attempted: len(ids),
		Failed:    b.check(ids, results, err),
	}, nil
}

// traced makes one untraced and one traced pass, then times the
// workload's layers call by call, and writes the trace.
func (b batchRun) traced(ctx context.Context, tracePath string) (values, int, int, error) {
	ids := b.spec.ids()
	v := values{}
	sp := newSpans()

	var setups []float64
	for i := 0; i < minPasses; i++ {
		_, setup, err := b.newStudy()
		if err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, setup.Seconds())
	}
	v["sim.new_s"] = median(setups)

	// The untraced baseline is a timed pass in its own process.
	base, err := runChild(ctx, "pass", b.spec.name, b.seed, b.scale)
	if err != nil {
		return nil, 0, 0, err
	}
	attempted, failed := base.Attempted, base.Failed

	runtime.GC()
	study, _, err := b.newStudy()
	if err != nil {
		return nil, 0, 0, err
	}
	var results []*core.Result
	var engine bytes.Buffer
	reg := obs.NewRegistry()
	obs.Enable(reg)
	engineOffset := time.Since(sp.epoch)
	tr := obs.NewTracer(&engine)
	obs.EnableTrace(tr)
	r0 := readRuntime()
	traced, err := sp.timed("pass", 0, func(uint64) error {
		results, err = study.RunAll(ctx, ids...)
		return err
	})
	r1 := readRuntime()
	obs.EnableTrace(nil)
	obs.Enable(nil)
	if cerr := tr.Close(); cerr != nil {
		return nil, 0, 0, cerr
	}
	attempted += len(ids)
	failed += b.check(ids, results, err)
	runtimeDelta(r0, r1, v)
	if err := registryMetrics(reg, v); err != nil {
		return nil, 0, 0, err
	}
	v["trace.overhead_s"] = traced.Seconds() - base.Wall

	if err := b.spec.probes(ctx, b, sp, v); err != nil {
		return nil, 0, 0, err
	}
	v["trace.spans"] = float64(sp.count())
	return v, attempted, failed, sp.write(tracePath, engine.Bytes(), engineOffset)
}

// registryMetrics copies the per-layer counters of the program's obs
// registry into v, each ratio with its base counts.
func registryMetrics(reg *obs.Registry, v values) error {
	fams, err := promtest.Parse(reg.RenderText())
	if err != nil {
		return err
	}
	sum := func(name string, keep func(s *promtest.Sample) bool) float64 {
		f := promtest.Find(fams, name)
		if f == nil {
			return 0
		}
		total := 0.0
		for i := range f.Samples {
			if keep == nil || keep(&f.Samples[i]) {
				total += f.Samples[i].Value
			}
		}
		return total
	}
	ring := func(names ...string) func(s *promtest.Sample) bool {
		return func(s *promtest.Sample) bool {
			r, _ := s.Get("ring")
			for _, n := range names {
				if r == n {
					return true
				}
			}
			return false
		}
	}
	ratio := func(prefix string, rings ...string) {
		hits := sum("i2p_cache_hits_total", ring(rings...))
		misses := sum("i2p_cache_misses_total", ring(rings...))
		v["cache."+prefix+"_hits"] = hits
		v["cache."+prefix+"_misses"] = misses
		if hits+misses > 0 {
			v["cache."+prefix+"_hit_ratio"] = hits / (hits + misses)
		}
	}
	ratio("observe_day", "observe_day")
	ratio("victim", "victim_addrset", "victim_known_peers")
	v["measure.units_evicted"] = sum("i2p_measure_units_evicted_total", nil)
	v["measure.retained_units_peak"] = sum("i2p_measure_retained_units_peak", nil)
	v["measure.engine_tasks"] = sum("i2p_engine_tasks_total", nil)
	v["measure.engine_steals"] = sum("i2p_engine_steals_total", nil)
	v["measure.engine_row_splits"] = sum("i2p_engine_row_splits_total", nil)
	v["checkpoint.rows_written"] = sum("i2p_checkpoint_rows_written_total", nil)
	v["checkpoint.bytes_spilled"] = sum("i2p_checkpoint_bytes_spilled_total", nil)
	v["censor.windowcounter_pool_ops"] = sum("i2p_windowcounter_pool_total", nil)
	return nil
}

// runExperiments runs ids one at a time, each in its own span under
// parent, and returns their total time.
func runExperiments(ctx context.Context, study *core.Study, sp *spans, parent uint64, ids []string) (time.Duration, error) {
	var total time.Duration
	for _, id := range ids {
		e, ok := core.Lookup(id)
		if !ok {
			return 0, fmt.Errorf("unknown experiment %q", id)
		}
		d, err := sp.timed("core."+id, parent, func(uint64) error {
			_, err := e.Run(ctx, study)
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", id, err)
		}
		total += d
	}
	return total, nil
}

// observeGrid draws ObserveDay over every (observer, day) cell serially
// and returns the time and the number of calls.
func observeGrid(observers []*sim.Observer, days []int) (time.Duration, int) {
	t0 := time.Now()
	calls := 0
	for _, o := range observers {
		for _, d := range days {
			o.ObserveDay(d)
			calls++
		}
	}
	return time.Since(t0), calls
}

func dayRange(from, to int) []int {
	var days []int
	for d := from; d < to; d++ {
		days = append(days, d)
	}
	return days
}

// censusProbes times the campaign's layers: the draws and the record
// materialisation of the main fleet, the campaign engine, and the
// analyses over its dataset.
func censusProbes(ctx context.Context, b batchRun, sp *spans, v values) error {
	runtime.GC()
	study, _, err := b.newStudy()
	if err != nil {
		return err
	}
	fleet := measure.DefaultObserverFleet(study.Opts.MainFleetSize)
	observers := make([]*sim.Observer, len(fleet))
	for i, cfg := range fleet {
		observers[i] = study.Net.NewObserver(cfg)
	}
	days := dayRange(0, study.Opts.Days)

	obsSpan := sp.open("observe", 0, 0)
	d, calls := observeGrid(observers, days)
	sp.end(obsSpan)
	v["sim.observe_s"] = d.Seconds()
	v["sim.observe_calls"] = float64(calls)

	// The draws above are memoised, so CollectDay now costs only the
	// record materialisation.
	matSpan := sp.open("materialize", 0, 0)
	a0, t0, records := allocs(), time.Now(), 0
	for _, o := range observers {
		for _, day := range days {
			records += len(o.CollectDay(day))
		}
	}
	v["sim.collect_s"] = time.Since(t0).Seconds()
	v["sim.collect_allocs"] = float64(allocs() - a0)
	v["sim.collect_records"] = float64(records)
	sp.end(matSpan)

	runtime.GC()
	a0 = allocs()
	d, err = sp.timed("campaign", 0, func(uint64) error {
		_, err := study.MainDatasetContext(ctx)
		return err
	})
	if err != nil {
		return err
	}
	v["measure.campaign_s"] = d.Seconds()
	v["measure.campaign_allocs"] = float64(allocs() - a0)

	var analyses []string
	for _, id := range b.spec.ids() {
		if !contains(censusGridIDs, id) {
			analyses = append(analyses, id)
		}
	}
	parent := sp.open("analyses", 0, 0)
	d, err = runExperiments(ctx, study, sp, parent.ID(), analyses)
	sp.end(parent)
	if err != nil {
		return err
	}
	v["measure.analyses_s"] = d.Seconds()

	parent = sp.open("observe_grid", 0, 0)
	d, err = runExperiments(ctx, study, sp, parent.ID(), censusGridIDs)
	sp.end(parent)
	if err != nil {
		return err
	}
	v["measure.observe_grid_s"] = d.Seconds()
	return nil
}

// figure13 is the Figure-13 sweep grid as the figure-13 experiment
// declares it: 20 censor routers, five blacklist windows, one day.
var figure13 = struct {
	fleet, seedBase int
	windows         []int
}{fleet: 20, seedBase: 700, windows: []int{1, 5, 10, 20, 30}}

// blockingProbes times the censorship layers: the censor fleet's draws,
// the Figure-13 sweep split into capture and cells, then the named
// experiments and the distrib sweeps one at a time.
func blockingProbes(ctx context.Context, b batchRun, sp *spans, v values) error {
	runtime.GC()
	study, _, err := b.newStudy()
	if err != nil {
		return err
	}
	day := study.Opts.Days - 5 // the experiments' reference day
	observers := make([]*sim.Observer, figure13.fleet)
	for i := range observers {
		observers[i] = study.Net.NewObserver(sim.ObserverConfig{
			Floodfill:  i%2 == 0,
			SharedKBps: sim.MaxSharedKBps,
			Seed:       uint64(figure13.seedBase + i),
		})
	}
	maxWindow := figure13.windows[len(figure13.windows)-1]
	obsSpan := sp.open("observe", 0, 0)
	d, calls := observeGrid(observers, dayRange(day-maxWindow+1, day+1))
	sp.end(obsSpan)
	v["sim.observe_s"] = d.Seconds()
	v["sim.observe_calls"] = float64(calls)

	runtime.GC()
	sweepSpan := sp.open("sweep", 0, 0)
	a0 := allocs()
	var sw *censor.Sweep
	d, err = sp.timed("capture", sweepSpan.ID(), func(uint64) error {
		var err error
		sw, err = censor.NewSweep(study.Net, censor.SweepConfig{
			Fleets:   []int{figure13.fleet},
			Windows:  figure13.windows,
			Days:     []int{day},
			SeedBase: uint64(figure13.seedBase),
		}, measure.Workers(workers))
		if err != nil {
			return err
		}
		return sw.Capture(ctx)
	})
	if err != nil {
		return err
	}
	v["censor.sweep_capture_s"] = d.Seconds()
	rates := make([][]float64, len(sw.Cells()))
	d, err = sp.timed("cells", sweepSpan.ID(), func(parent uint64) error {
		return sw.Each(ctx, func(i int, cu *censor.Cursor) error {
			c := sp.open("cell", parent, i+1)
			cell := cu.Cell()
			rates[i] = sw.BlockingSeries(cell.Window, cell.Day, cell.Fleet)
			sp.end(c)
			return nil
		})
	})
	if err != nil {
		return err
	}
	v["censor.sweep_run_s"] = d.Seconds()
	v["censor.sweep_allocs"] = float64(allocs() - a0)
	sp.end(sweepSpan)
	for _, series := range rates {
		if !ratesValid(series, 1) {
			return fmt.Errorf("figure-13 sweep: blocking rates outside [0,1] or falling as routers are added")
		}
	}

	// The named experiments run one after another on a second network,
	// so figure-13, the first, builds its address index as the CLI's
	// concurrent pass does.
	runtime.GC()
	if study, _, err = b.newStudy(); err != nil {
		return err
	}
	for _, id := range []string{"figure-13", "figure-14", "eclipse-attack", "bridge-strategies"} {
		d, err := runExperiments(ctx, study, sp, 0, []string{id})
		if err != nil {
			return err
		}
		v["core."+id+"_s"] = d.Seconds()
	}
	parent := sp.open("distrib.sweep", 0, 0)
	d, err = runExperiments(ctx, study, sp, parent.ID(), []string{"bridge-distribution", "distribution-enumeration"})
	sp.end(parent)
	if err != nil {
		return err
	}
	v["distrib.sweep_s"] = d.Seconds()
	d, err = runExperiments(ctx, study, sp, 0, []string{"trust-distribution"})
	if err != nil {
		return err
	}
	v["distrib.trust_sweep_s"] = d.Seconds()
	return nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// digest fingerprints one experiment's output: its rendered text and its
// metrics, each value by its exact bits.
func digest(res *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", res.ID, res.Text)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(h, "%s=%016x\n", k, math.Float64bits(res.Metrics[k]))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ratesValid reports whether a cumulative blocking series lies in
// [0,max] and never falls as routers are added.
func ratesValid(series []float64, max float64) bool {
	prev := 0.0
	for _, r := range series {
		if r < 0 || r > max || r < prev || math.IsNaN(r) {
			return false
		}
		prev = r
	}
	return true
}

// check counts the failed experiments of one pass: an error fails them
// all; otherwise each result must carry exactly its registered metrics,
// all finite, Figure 13's rates must be valid, and on the golden inputs
// each digest must match the recorded one.
func (b batchRun) check(ids []string, results []*core.Result, err error) int {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: run failed: %v\n", b.spec.name, err)
		return len(ids)
	}
	if len(results) != len(ids) {
		fmt.Fprintf(os.Stderr, "%s: %d results for %d experiments\n", b.spec.name, len(results), len(ids))
		return len(ids)
	}
	failed := 0
	for i, res := range results {
		if msg := b.checkOne(ids[i], res); msg != "" {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", b.spec.name, ids[i], msg)
			failed++
		}
	}
	return failed
}

func (b batchRun) checkOne(id string, res *core.Result) string {
	if res == nil || res.ID != id {
		return "missing or misplaced result"
	}
	if strings.TrimSpace(res.Text) == "" {
		return "empty rendered text"
	}
	want, ok := metricKeys[id]
	if !ok {
		return "no registered metric set"
	}
	got := sortedKeys(res.Metrics)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Sprintf("metrics %v, want %v", got, want)
	}
	for _, k := range got {
		if x := res.Metrics[k]; math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Sprintf("metric %s = %v", k, x)
		}
	}
	if id == "figure-13" {
		if res.Figure == nil || len(res.Figure.Series) == 0 {
			return "no blocking series"
		}
		for _, s := range res.Figure.Series {
			if !ratesValid(s.Y, 100) {
				return fmt.Sprintf("series %q: blocking rates outside [0,100]%% or falling as routers are added", s.Name)
			}
		}
	}
	if b.golden {
		if got, want := digest(res), goldenDigests[b.spec.name][id]; got != want {
			return fmt.Sprintf("output digest %s, recorded %s", got, want)
		}
	}
	return ""
}
