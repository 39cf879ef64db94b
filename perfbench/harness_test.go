package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/core"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a timed run starts its child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--child" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},   // the median has only 9 samples beyond it
		{20, 50, true},   // rank 10, 10 beyond
		{99, 50, true},   // p90 is rank 90, 9 beyond
		{100, 90, true},  // p90 is rank 90, 10 beyond; p99 has 1
		{999, 90, true},  // p99 is rank 990, 9 beyond
		{1000, 99, true}, // p99 is rank 990, 10 beyond; p99.9 has 1
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0: 1, 50: 50, 90: 90, 99: 99, 99.5: 100, 100: 100} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestOpenLoopAccounting checks that latency runs from the due time, so
// a stall charges the requests queued behind it, and that lateness is
// measured at issue.
func TestOpenLoopAccounting(t *testing.T) {
	us := time.Microsecond
	o := openLoop{interval: 50 * us}
	o.record(0, 0, 10*us)       // on time, 10us of service
	o.record(1, 300*us, 310*us) // a 250us stall before issue
	o.record(2, 310*us, 320*us) // queued behind the stall: issued 210us late
	o.record(3, 320*us, 330*us) // 170us late
	o.record(4, 330*us, 340*us) // 130us late
	want := []float64{10, 260, 220, 180, 140}
	for i, w := range want {
		if o.lat[i] != w {
			t.Errorf("request %d latency %vus, want %vus", i, o.lat[i], w)
		}
	}
	if o.lateMax != 250*us {
		t.Errorf("lateMax %v, want 250us", o.lateMax)
	}
	p50, p99, tailPct, _, n := o.summary()
	if p50 != 180 || n != 5 {
		t.Errorf("p50 %v over %d samples, want 180 over 5", p50, n)
	}
	if p99 != 0 || tailPct != 0 {
		t.Errorf("5 samples support no tail, got p99 %v, tail p%v", p99, tailPct)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validMetricName(d.name) {
			t.Errorf("invalid metric name %q", d.name)
		}
		if seen[d.name] {
			t.Errorf("duplicate metric name %q", d.name)
		}
		seen[d.name] = true
		if d.unit == "" || len(d.unit) > 16 {
			t.Errorf("metric %q has unit %q", d.name, d.unit)
		}
	}
	for _, bad := range []string{"", "a b", "_x", ".x", "x/y", "é", strings.Repeat("x", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
}

// TestBenchmarkFileMatches checks BENCHMARK.json at the checkout root
// declares exactly the metrics this program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, bench.EndToEnd)
	same("per_layer", perLayer, bench.PerLayer)
}

func TestValuesBuild(t *testing.T) {
	defs := []metricDef{{"a_s", "s"}, {"b", "count"}}
	ms, err := values{"a_s": 1.5}.build(defs)
	if err != nil {
		t.Fatal(err)
	}
	if ms["a_s"] != (metric{1.5, "s"}) || ms["b"] != (metric{0, "count"}) || len(ms) != 2 {
		t.Errorf("build = %v", ms)
	}
	if _, err := (values{"c": 1}).build(defs); err == nil {
		t.Error("undeclared metric accepted")
	}
	if _, err := (values{"a_s": math.NaN()}).build(defs); err == nil {
		t.Error("NaN accepted")
	}
}

func TestHistP99(t *testing.T) {
	a := &metrics.Float64Histogram{Buckets: []float64{0, 1, 2, 3, math.Inf(1)}, Counts: []uint64{5, 0, 0, 0}}
	b := &metrics.Float64Histogram{Buckets: a.Buckets, Counts: []uint64{5 + 98, 0, 1, 1}}
	// 100 new samples: 98 in [0,1), one in [2,3), one in [3,+Inf). The
	// 99th lands in [2,3).
	if got := histP99(a, b); got != 3 {
		t.Errorf("histP99 = %v, want 3", got)
	}
}

func TestRatesValid(t *testing.T) {
	if !ratesValid([]float64{0, 0.5, 0.5, 1}, 1) {
		t.Error("valid series rejected")
	}
	for _, bad := range [][]float64{{0.5, 0.4}, {-0.1}, {1.1}, {math.NaN()}} {
		if ratesValid(bad, 1) {
			t.Errorf("series %v accepted", bad)
		}
	}
}

// TestFiltered checks the retirement invariant the handout check uses:
// a later handout is the earlier one minus retired bridges, in order.
func TestFiltered(t *testing.T) {
	body := func(peers ...int) []byte {
		var h struct {
			Bridges []struct {
				Peer int    `json:"peer"`
				Key  string `json:"key"`
			} `json:"bridges"`
		}
		for _, p := range peers {
			h.Bridges = append(h.Bridges, struct {
				Peer int    `json:"peer"`
				Key  string `json:"key"`
			}{p, "k"})
		}
		data, _ := json.Marshal(h)
		return data
	}
	retired := func(p int) bool { return p == 2 }
	if msg := filtered(retired, body(1, 2, 3), body(1, 3)); msg != "" {
		t.Errorf("filtered handout rejected: %s", msg)
	}
	for _, later := range [][]byte{body(3, 1), body(1, 4), body(1, 2, 3)} {
		if msg := filtered(retired, body(1, 2, 3), later); msg == "" {
			t.Errorf("handout %s accepted", later)
		}
	}
}

// TestCheckRejects checks that the batch output check counts a wrong
// metric set, a non-finite metric and a falling Figure-13 series.
func TestCheckRejects(t *testing.T) {
	b := batchRun{spec: blockingSpec}
	good := func() *core.Result {
		m := map[string]float64{}
		for _, k := range metricKeys["port-blocking"] {
			m[k] = 1
		}
		return &core.Result{ID: "port-blocking", Text: "x", Metrics: m}
	}
	if msg := b.checkOne("port-blocking", good()); msg != "" {
		t.Fatalf("good result rejected: %s", msg)
	}
	missing := good()
	delete(missing.Metrics, metricKeys["port-blocking"][0])
	nan := good()
	nan.Metrics[metricKeys["port-blocking"][0]] = math.Inf(1)
	for name, res := range map[string]*core.Result{"missing metric": missing, "infinite metric": nan} {
		if b.checkOne("port-blocking", res) == "" {
			t.Errorf("%s accepted", name)
		}
	}
	golden := batchRun{spec: blockingSpec, golden: true}
	if golden.checkOne("port-blocking", good()) == "" {
		t.Error("digest mismatch accepted")
	}
}

// TestSmoke runs every workload, timed and traced, at a tiny size on
// two seeds other than the golden one: every invariant check must pass
// and every metric must be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	tracecheck := buildTracecheck(t)
	for _, workload := range []string{"census", "blocking", "handout"} {
		for _, seed := range []uint64{1, 2} {
			in := inputs{seed: seed, scale: 0.02, seconds: 300 * time.Millisecond}
			for _, traced := range []bool{false, true} {
				path := ""
				if traced {
					path = filepath.Join(t.TempDir(), "trace.json")
				}
				rep, _, err := run(context.Background(), workload, in, path)
				if err != nil {
					t.Fatalf("%s seed %d traced %v: %v", workload, seed, traced, err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("%s seed %d traced %v: correct %v, %d of %d failed", workload, seed, traced, rep.Correct, rep.Failed, rep.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
					if out, err := exec.Command(tracecheck, path).CombinedOutput(); err != nil {
						t.Errorf("%s seed %d: tracecheck: %v\n%s", workload, seed, err, out)
					}
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%s: %d metrics, want %d", workload, len(rep.Metrics), len(want))
				}
			}
		}
	}
}

// buildTracecheck builds the repository's trace checker,
// scripts/tracecheck, from the checkout the module's replace directive
// points at.
func buildTracecheck(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tracecheck")
	out, err := exec.Command("go", "build", "-o", bin, "github.com/i2pstudy/i2pstudy/scripts/tracecheck").CombinedOutput()
	if err != nil {
		t.Fatalf("building tracecheck: %v\n%s", err, out)
	}
	return bin
}

// TestGoldens checks the recorded digests on the golden inputs: the
// default seed at each workload's own size.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size workloads")
	}
	ctx := context.Background()
	in := inputs{seed: defaultSeed}
	for _, workload := range []string{"census", "blocking"} {
		b := batchFor(workload, in)
		if !b.golden {
			t.Fatalf("%s: default inputs are not the golden ones", workload)
		}
		r, err := b.pass(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 {
			t.Errorf("%s: %d of %d experiments differ from the goldens", workload, r.Failed, r.Attempted)
		}
	}
	h := handoutFor(in)
	d, _, err := h.newDaemon(nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, c := h.checkPass(d, h.requests().checks, nil)
	if c.failed != 0 || snap.digest != goldenDigests["handout"]["bodies"] {
		t.Errorf("handout: %d failed, digest %s, recorded %s", c.failed, snap.digest, goldenDigests["handout"]["bodies"])
	}
}
