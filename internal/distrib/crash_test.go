package distrib

import (
	"context"
	"reflect"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// TestCrashResume is the distrib engines' crash-safety golden, stated
// through the shared harness: a run killed by an injected fault and
// resumed from its checkpoint directory yields results byte-identical
// to an uninterrupted run, at every ladder width, with obs enabled. The
// arms-race sweep checkpoints at cell granularity; the trust sweep at
// row granularity (a partial trust row would have to replay anyway).
func TestCrashResume(t *testing.T) {
	n := network(t)
	enginetest.CrashResume(t, 2018, []enginetest.CrashCase{
		{
			Name:  "arms-race",
			Point: "distrib.sweep.cell",
			Run: func(t testing.TB, dir string, workers int) (any, error) {
				sw, err := NewSweep(n, testSweepConfig(workers))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sw.RunCheckpointed(context.Background(), dir)
				if err != nil {
					return nil, err
				}
				return res, nil
			},
		},
		{
			Name:  "trust-rows",
			Point: "distrib.trustsweep.cell",
			Run: func(t testing.TB, dir string, workers int) (any, error) {
				sw, err := NewTrustSweep(n, testTrustConfig(workers))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sw.RunCheckpointed(context.Background(), dir)
				if err != nil {
					return nil, err
				}
				return res, nil
			},
		},
	})
}

// TestTrustSweepCheckpointSpillsEachRowOnce pins the per-row countdown
// that decides when a trust row is final: an uninterrupted checkpointed
// run commits exactly one unit per (distributor, enumerator) row at
// every ladder width, and each unit holds the row's whole horizon.
func TestTrustSweepCheckpointSpillsEachRowOnce(t *testing.T) {
	n := network(t)
	prev := obs.Active()
	t.Cleanup(func() { obs.Enable(prev) })
	for _, w := range enginetest.Workers() {
		reg := obs.NewRegistry()
		obs.Enable(reg)
		sw, err := NewTrustSweep(n, testTrustConfig(w))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		res, err := sw.RunCheckpointed(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		rows := len(sw.Cfg.Enumerators) * len(sw.Cfg.Distributors)
		if got := reg.Counter("i2p_checkpoint_rows_written_total", "").Load(); got != uint64(rows) {
			t.Fatalf("Workers=%d: %d units written, want one per row (%d)", w, got, rows)
		}
		store, err := checkpoint.Open(dir, sw.checkpointManifest())
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			var saved, want []TrustCellResult
			if ok, err := store.LoadJSON(trustRowKey(r), &saved); err != nil || !ok {
				t.Fatalf("Workers=%d: row %d unit missing (ok=%v, err=%v)", w, r, ok, err)
			}
			for i := r; i < len(res); i += rows {
				want = append(want, res[i])
			}
			if !reflect.DeepEqual(saved, want) {
				t.Fatalf("Workers=%d: row %d unit differs from the run's results", w, r)
			}
		}
	}
}
