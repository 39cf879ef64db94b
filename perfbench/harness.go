package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// This file is the workload-independent part of the benchmark: sample
// statistics, the open-loop accounting, the in-memory span recorder,
// and the process-level readings (CPU time, peak RSS, runtime/metrics).

// metricNameRE is the name rule every reported metric must satisfy.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload: each is what a user of that workload's command waits for or
// pays. The unit of work behind wall_s and cpu_s is one i2pmeasure pass
// (census), one i2pcensor pass (blocking), or one fixed batch of
// requests served at saturation (handout).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_objects", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.sched_wait_p99_us", "us"},

	{"sim.new_s", "s"},
	{"sim.observe_s", "s"},
	{"sim.observe_calls", "count"},
	{"sim.collect_s", "s"},
	{"sim.collect_records", "count"},
	{"sim.collect_allocs", "count"},

	{"measure.campaign_s", "s"},
	{"measure.campaign_allocs", "count"},
	{"measure.analyses_s", "s"},
	{"measure.observe_grid_s", "s"},
	{"measure.units_evicted", "count"},
	{"measure.retained_units_peak", "count"},
	{"measure.engine_tasks", "count"},
	{"measure.engine_steals", "count"},
	{"measure.engine_row_splits", "count"},

	{"checkpoint.rows_written", "count"},
	{"checkpoint.bytes_spilled", "bytes"},

	{"cache.observe_day_hit_ratio", "ratio"},
	{"cache.observe_day_hits", "count"},
	{"cache.observe_day_misses", "count"},
	{"cache.victim_hit_ratio", "ratio"},
	{"cache.victim_hits", "count"},
	{"cache.victim_misses", "count"},

	{"censor.sweep_capture_s", "s"},
	{"censor.sweep_run_s", "s"},
	{"censor.sweep_allocs", "count"},
	{"censor.windowcounter_pool_ops", "count"},
	{"core.figure-13_s", "s"},
	{"core.eclipse-attack_s", "s"},
	{"core.bridge-strategies_s", "s"},
	{"core.figure-14_s", "s"},

	{"distrib.sweep_s", "s"},
	{"distrib.trust_sweep_s", "s"},
	{"distrib.serve_p50_us", "us"},
	{"distrib.serve_allocs", "count"},

	{"service.new_s", "s"},
	{"service.handout_p50_us", "us"},
	{"service.handout_allocs", "count"},
	{"service.seeds_p50_us", "us"},
	{"service.seeds_allocs", "count"},
	{"service.retire_ms", "ms"},
	{"service.retirements", "count"},
	{"service.denied", "count"},

	{"loadgen.p50_us", "us"},
	{"loadgen.rps", "1/s"},
	{"loadgen.late_max_us", "us"},
	{"loadgen.p99_us", "us"},
	{"loadgen.tail_pct", "%"},
	{"loadgen.tail_us", "us"},
	{"loadgen.samples", "count"},

	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

// values collects a run's metrics by name; units come from the tables.
type values map[string]float64

// build turns measured values into the reported metric set: exactly the
// names of defs, each with its unit, missing ones as 0. A value whose
// name is not in defs is a benchmark bug.
func (v values) build(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		x := v[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	for name := range v {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rank(n, p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps float error in p/100*n (99.9% of 10000 is
// 9990.000000000002) from moving the rank up by one.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentiles are the candidates for the reported tail, lowest first.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tailPercentile returns the highest candidate percentile that has at
// least ten of n samples beyond it; ok is false when even the median
// has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		if n-rank(n, tailPercentiles[i]) >= 10 {
			return tailPercentiles[i], true
		}
	}
	return 0, false
}

// openLoop accounts an open-loop schedule: request i is due at
// i*interval after the phase start. Latency runs from the due time, so a
// stall also charges the requests queued behind it; lateness is how far
// behind schedule the generator issued a request.
type openLoop struct {
	interval time.Duration
	lat      []float64 // microseconds from due time to completion
	lateMax  time.Duration
}

// due returns request i's due offset.
func (o *openLoop) due(i int) time.Duration { return time.Duration(i) * o.interval }

// record accounts request i issued at offset started and completed at
// offset done, both measured from the phase start.
func (o *openLoop) record(i int, started, done time.Duration) {
	due := o.due(i)
	if late := started - due; late > o.lateMax {
		o.lateMax = late
	}
	o.lat = append(o.lat, float64(done-due)/float64(time.Microsecond))
}

// summary returns the median, p99, the rule-chosen tail and the sample
// count, all in microseconds.
func (o *openLoop) summary() (p50, p99, tailPct, tail float64, n int) {
	s := append([]float64(nil), o.lat...)
	sort.Float64s(s)
	n = len(s)
	p50 = percentile(s, 50)
	if n-rank(n, 99) >= 10 {
		p99 = percentile(s, 99)
	}
	if p, ok := tailPercentile(n); ok {
		tailPct, tail = p, percentile(s, p)
	}
	return p50, p99, tailPct, tail, n
}

// usage is a process CPU and high-water reading.
type usage struct {
	cpu     time.Duration
	maxRSSB int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	// Linux reports ru_maxrss in KiB.
	return usage{cpu: cpu, maxRSSB: ru.Maxrss * 1024}
}

func peakRSSMB() float64 { return float64(readUsage().maxRSSB) / (1 << 20) }

// rtSample is a runtime/metrics snapshot of the counters the runtime
// layer reports.
type rtSample struct {
	gcCPU      float64
	allocObjs  uint64
	allocBytes uint64
	schedWait  *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocObjs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		out.schedWait = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: h.Buckets,
		}
	}
	return out
}

// allocs returns the heap objects allocated so far. runtime/metrics
// reads it without stopping the world; the count is exact once the
// allocating goroutines have returned.
func allocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeDelta reports the runtime layer's metrics between two samples.
func runtimeDelta(a, b rtSample, v values) {
	v["runtime.gc_cpu_s"] = b.gcCPU - a.gcCPU
	v["runtime.alloc_objects"] = float64(b.allocObjs - a.allocObjs)
	v["runtime.alloc_mb"] = float64(b.allocBytes-a.allocBytes) / (1 << 20)
	if a.schedWait != nil && b.schedWait != nil {
		v["runtime.sched_wait_p99_us"] = histP99(a.schedWait, b.schedWait) * 1e6
	}
}

// histP99 returns the upper bound of the bucket holding the 99th
// percentile of the counts added between a and b.
func histP99(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= want {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// spans keeps trace spans in memory until the run ends. A nil *spans is
// the untraced mode: every method is a no-op.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	next  uint64
	done  []span
}

// span is one recorded interval. Parent 0 is a root.
type span struct {
	name       string
	id, parent uint64
	tid        int
	start, end time.Duration
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// open starts a span; close it with end.
func (s *spans) open(name string, parent uint64, tid int) *span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.next++
	id := s.next
	s.mu.Unlock()
	return &span{name: name, id: id, parent: parent, tid: tid, start: time.Since(s.epoch)}
}

// end closes sp and keeps it.
func (s *spans) end(sp *span) {
	if s == nil || sp == nil {
		return
	}
	sp.end = time.Since(s.epoch)
	s.mu.Lock()
	s.done = append(s.done, *sp)
	s.mu.Unlock()
}

// openIf opens a child of parent, or nothing when parent is nil.
func (s *spans) openIf(parent *span, name string, tid int) *span {
	if parent == nil {
		return nil
	}
	return s.open(name, parent.id, tid)
}

// ID returns sp's id, 0 for a nil span.
func (sp *span) ID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.id
}

// timed runs fn inside a span and returns its duration.
func (s *spans) timed(name string, parent uint64, fn func(id uint64) error) (time.Duration, error) {
	sp := s.open(name, parent, 0)
	t0 := time.Now()
	err := fn(sp.ID())
	d := time.Since(t0)
	s.end(sp)
	return d, err
}

func (s *spans) count() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done)
}

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   *float64       `json:"ts,omitempty"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// write renders the benchmark's spans (pid 1) and, when engine is
// non-empty, the program's own engine spans from its obs tracer (pid 2,
// shifted by engineOffset onto the benchmark's clock) as one Chrome
// trace-event JSON array.
func (s *spans) write(path string, engine []byte, engineOffset time.Duration) error {
	us := func(d time.Duration) *float64 { x := float64(d) / float64(time.Microsecond); return &x }
	evs := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench"}},
	}
	s.mu.Lock()
	for _, sp := range s.done {
		evs = append(evs, traceEvent{Name: sp.name, Ph: "X", Pid: 1, Tid: sp.tid,
			Ts: us(sp.start), Dur: us(sp.end - sp.start), Args: map[string]any{"id": sp.id, "parent": sp.parent}})
	}
	s.mu.Unlock()
	if len(engine) > 0 {
		var prog []traceEvent
		if err := json.Unmarshal(engine, &prog); err != nil {
			return fmt.Errorf("engine trace: %w", err)
		}
		evs = append(evs, traceEvent{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "i2pstudy engines"}})
		for _, ev := range prog {
			if ev.Ph == "M" && ev.Name == "process_name" {
				continue
			}
			ev.Pid = 2
			if ev.Ts != nil {
				ev.Ts = us(time.Duration(*ev.Ts*float64(time.Microsecond)) + engineOffset)
			}
			evs = append(evs, ev)
		}
	}
	data, err := json.Marshal(evs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// buildMeta describes the binary and the machine a report was made on.
func buildMeta() []string {
	goVersion, revision, modified := runtime.Version(), "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				revision = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					modified = " (modified)"
				}
			}
		}
	}
	return []string{
		fmt.Sprintf("nproc %d", runtime.NumCPU()),
		fmt.Sprintf("GOMAXPROCS %d", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("go %s", goVersion),
		fmt.Sprintf("revision %s%s", revision, modified),
	}
}
