package measure

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// withObs enables a fresh registry (and optionally a tracer buffer) for
// the test's duration, restoring the previous globals after.
func withObs(t *testing.T, trace bool) (*obs.Registry, *strings.Builder) {
	t.Helper()
	prevReg, prevTr := obs.Active(), obs.ActiveTracer()
	r := obs.NewRegistry()
	obs.Enable(r)
	var buf *strings.Builder
	if trace {
		buf = &strings.Builder{}
		obs.EnableTrace(obs.NewTracer(buf))
	}
	t.Cleanup(func() {
		obs.Enable(prevReg)
		obs.EnableTrace(prevTr)
	})
	return r, buf
}

func TestFanOutCountsSerialTasks(t *testing.T) {
	r, _ := withObs(t, false)
	err := FanOut(context.Background(), 5, 1, func(i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	text := r.RenderText()
	if !strings.Contains(text, `i2p_engine_tasks_total{mode="serial"} 5`) {
		t.Errorf("serial task count wrong:\n%s", text)
	}
}

func TestFanOutCountsParallelTasksAndSteals(t *testing.T) {
	r, buf := withObs(t, true)
	// Force at least one steal deterministically: with 2 workers over 4
	// tasks the runs are [0 1] and [2 3]. Task 0 blocks until every
	// other task is done, so worker 0 cannot reach task 1 — worker 1
	// must steal it before task 0 can unblock.
	var others sync.WaitGroup
	others.Add(3)
	err := FanOut(context.Background(), 4, 2, func(i int) error {
		if i == 0 {
			others.Wait()
			return nil
		}
		others.Done()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	text := r.RenderText()
	if !strings.Contains(text, `i2p_engine_tasks_total{mode="parallel"} 4`) {
		t.Errorf("parallel task count wrong:\n%s", text)
	}
	fams, _ := findCounter(text, "i2p_engine_steals_total")
	if fams < 1 {
		t.Errorf("steals = %d, want >= 1:\n%s", fams, text)
	}
	// The trace saw the same schedule: task spans on both workers and at
	// least one steal instant naming its victim.
	tr := buf.String()
	if !strings.Contains(tr, `"name":"task"`) || !strings.Contains(tr, `"name":"steal"`) {
		t.Errorf("trace missing task/steal events:\n%s", tr)
	}
}

// findCounter extracts the rendered integer value of an unlabeled
// counter from exposition text.
func findCounter(text, name string) (int, bool) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n := 0
			for _, c := range v {
				if c < '0' || c > '9' {
					return 0, false
				}
				n = n*10 + int(c-'0')
			}
			return n, true
		}
	}
	return 0, false
}

func TestPlanRowsCountsRows(t *testing.T) {
	r, _ := withObs(t, false)
	plan := PlanRows(8, 3,
		func(i int) int { return i % 3 },
		func(i int) int { return i })
	if len(plan) != 3 {
		t.Fatalf("plan has %d rows, want 3", len(plan))
	}
	if n, ok := findCounter(r.RenderText(), "i2p_engine_rows_planned_total"); !ok || n != 3 {
		t.Errorf("rows planned = %d, want 3", n)
	}
}

func TestFanRowsEmitsRowAndCellSpans(t *testing.T) {
	_, buf := withObs(t, true)
	plan := RowPlan{{0, 1}, {2}, {3, 4}}
	err := FanRows(context.Background(), plan, 2, func(row, task int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	tr := buf.String()
	if strings.Count(tr, `"name":"cell"`) != 5 {
		t.Errorf("want 5 cell spans:\n%s", tr)
	}
	if strings.Count(tr, `"name":"row"`) != 3 {
		t.Errorf("want 3 row spans:\n%s", tr)
	}
}

func TestCampaignEmitsOneDaySpanPerDay(t *testing.T) {
	_, buf := withObs(t, true)
	n, err := sim.New(sim.Config{Seed: 7, Days: 6, TargetDailyPeers: 200})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(n, CampaignConfig{
		Observers: DefaultObserverFleet(2),
		StartDay:  0,
		EndDay:    6,
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"name":"day"`); got != 6 {
		t.Errorf("%d day spans, want one per campaign day (6):\n%s", got, buf.String())
	}
}

func TestObservabilityDisabledFanOutStillWorks(t *testing.T) {
	prevReg, prevTr := obs.Active(), obs.ActiveTracer()
	obs.Enable(nil)
	obs.EnableTrace(nil)
	t.Cleanup(func() {
		obs.Enable(prevReg)
		obs.EnableTrace(prevTr)
	})
	got := make([]int, 16)
	err := FanOut(context.Background(), 16, 4, func(i int) error {
		got[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}
