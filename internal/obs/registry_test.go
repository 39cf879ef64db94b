package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("jobs_total", "Jobs processed.", "kind")
	c.With("fast").Add(3)
	c.With("slow").Inc()
	g := r.Gauge("pool_size", "Live pool entries.")
	g.Set(7)

	got := r.RenderText()
	for _, want := range []string{
		"# HELP jobs_total Jobs processed.",
		"# TYPE jobs_total counter",
		`jobs_total{kind="fast"} 3`,
		`jobs_total{kind="slow"} 1`,
		"# TYPE pool_size gauge",
		"pool_size 7",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("render missing %q:\n%s", want, got)
		}
	}
	// Families render sorted by name.
	if strings.Index(got, "jobs_total") > strings.Index(got, "pool_size") {
		t.Errorf("families not sorted:\n%s", got)
	}
}

func TestFamilyIdempotentAndSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("x_total", "help", "l")
	b := r.CounterVec("x_total", "help", "l")
	if a.With("v") != b.With("v") {
		t.Error("same family+labels resolved to distinct series")
	}
	if r.Counter("plain_total", "h") != r.Counter("plain_total", "h") {
		t.Error("unlabeled counter not a singleton")
	}
}

func TestFamilyKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "h")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m_total", "h")
}

func TestHistogramCumulativeRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	got := r.RenderText()
	for _, want := range []string{
		`lat_bucket{le="0.1"} 1`,
		`lat_bucket{le="1"} 3`,
		`lat_bucket{le="10"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		"lat_sum 56.05",
		"lat_count 5",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("render missing %q:\n%s", want, got)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	// Prometheus buckets are le (inclusive upper bound): an observation
	// exactly on a boundary lands in that boundary's bucket.
	r := NewRegistry()
	h := r.Histogram("b", "h", []float64{1, 2})
	h.Observe(1)
	got := r.RenderText()
	if !strings.Contains(got, `b_bucket{le="1"} 1`) {
		t.Errorf("boundary observation not in le=1 bucket:\n%s", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "h", "v").With("a\\b\"c\nd").Inc()
	got := r.RenderText()
	want := `esc_total{v="a\\b\"c\nd"} 1`
	if !strings.Contains(got, want) {
		t.Errorf("escaped render missing %q:\n%s", want, got)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	var r *Registry
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if cv.With("x") != nil || gv.With("x") != nil || hv.With("x") != nil {
		t.Error("nil vec With returned non-nil")
	}
	if r.Counter("a_total", "h") != nil || r.RenderText() != "" {
		t.Error("nil registry not inert")
	}
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil loads not zero")
	}
}

func TestConcurrentCounts(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("conc_total", "h", "w")
	h := r.Histogram("conc_lat", "h", []float64{1, 10})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cv.With("shared")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
			}
		}(w)
	}
	wg.Wait()
	if got := cv.With("shared").Load(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

func TestEnableAndHooks(t *testing.T) {
	prev := Active()
	prevTr := ActiveTracer()
	t.Cleanup(func() { Enable(prev); EnableTrace(prevTr) })

	var hookRuns int
	OnEnable(func(r *Registry) {
		hookRuns++
		r.Counter("hooked_total", "created eagerly")
	})
	before := hookRuns

	r := NewRegistry()
	Enable(r)
	if Active() != r {
		t.Fatal("Active() != enabled registry")
	}
	if hookRuns != before+1 {
		t.Errorf("hook ran %d times on Enable, want 1", hookRuns-before)
	}
	if !strings.Contains(r.RenderText(), "hooked_total 0") {
		t.Errorf("eager family absent from render:\n%s", r.RenderText())
	}
	Enable(nil)
	if Active() != nil {
		t.Error("Enable(nil) did not disable")
	}
}

func TestLazyResolvesPerRegistry(t *testing.T) {
	prev := Active()
	t.Cleanup(func() { Enable(prev) })

	type handles struct{ c *Counter }
	Enable(nil)
	lazy := NewLazy(func(r *Registry) *handles {
		return &handles{c: r.Counter("lazy_total", "Lazy handle test.")}
	})
	off := lazy.Get()
	if off.c != nil || lazy.Get() != off {
		t.Fatal("disabled Get must return one inert zero value")
	}
	off.c.Inc() // nil handle: a no-op

	a, b := NewRegistry(), NewRegistry()
	Enable(a)
	if !strings.Contains(a.RenderText(), "lazy_total 0") {
		t.Errorf("family not pre-created on Enable:\n%s", a.RenderText())
	}
	lazy.Get().c.Inc()
	Enable(b)
	if !strings.Contains(b.RenderText(), "lazy_total 0") {
		t.Errorf("family not pre-created on the second Enable:\n%s", b.RenderText())
	}
	lazy.Get().c.Add(2)
	if !strings.Contains(a.RenderText(), "lazy_total 1") || !strings.Contains(b.RenderText(), "lazy_total 2") {
		t.Errorf("Get did not re-resolve on the registry swap:\nA:\n%s\nB:\n%s", a.RenderText(), b.RenderText())
	}
}
