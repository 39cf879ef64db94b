package distrib

import (
	"context"
	"errors"
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
		// Reopening the directory loads every row back into its cells.
		resumed := make([]TrustCellResult, len(res))
		store, err := checkpoint.OpenRows(dir, sw.checkpointManifest(), resumed, rows)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			if !store.Done(r) {
				t.Fatalf("Workers=%d: row %d unit missing", w, r)
			}
		}
		if !reflect.DeepEqual(resumed, res) {
			t.Fatalf("Workers=%d: row units differ from the run's results", w)
		}
	}
}

// refusesResume runs first into a fresh checkpoint directory, then
// requires second to refuse that directory as another config's state.
func refusesResume(t *testing.T, first, second func(dir string) error) {
	t.Helper()
	dir := t.TempDir()
	if err := first(dir); err != nil {
		t.Fatal(err)
	}
	err := second(dir)
	var mm *checkpoint.MismatchError
	if !errors.As(err, &mm) || mm.Field != "config_hash" {
		t.Fatalf("resume under a changed config: err = %v, want a config_hash *checkpoint.MismatchError", err)
	}
}

// TestSweepCheckpointRefusesChangedDistributor pins the distributors'
// unexported request model into the manifest: a same-name https
// frontend with another handout size serves different bridges.
func TestSweepCheckpointRefusesChangedDistributor(t *testing.T) {
	n := network(t)
	run := func(d Distributor) func(dir string) error {
		return func(dir string) error {
			cfg := testSweepConfig(1)
			cfg.Distributors, cfg.Days = []Distributor{d}, []int{10}
			sw, err := NewSweep(n, cfg)
			if err != nil {
				return err
			}
			_, err = sw.RunCheckpointed(context.Background(), dir)
			return err
		}
	}
	refusesResume(t, run(NewHTTPS()),
		run(&ringDist{name: "https", handout: 4, rotationDays: 7, identityCost: 1}))
}

// TestTrustSweepCheckpointRefusesChangedBanRule pins the trust
// frontends' banning rule into the manifest: the graph and name stay
// the same, but a different BanThreshold quarantines other users.
func TestTrustSweepCheckpointRefusesChangedBanRule(t *testing.T) {
	n := network(t)
	run := func(banThreshold float64) func(dir string) error {
		return func(dir string) error {
			cfg := testTrustConfig(1)
			cfg.Distributors = []*TrustSocial{NewTrustSocial(TrustSocialConfig{
				Name:         "trust-social",
				Graph:        TrustGraphConfig{Users: 160, Seeds: 4, Seed: 1},
				BanThreshold: banThreshold,
			})}
			sw, err := NewTrustSweep(n, cfg)
			if err != nil {
				return err
			}
			_, err = sw.RunCheckpointed(context.Background(), dir)
			return err
		}
	}
	refusesResume(t, run(2), run(3))
}

// TestManifestCoversConfig asserts every config field but Workers
// reaches each distrib engine's checkpoint manifest.
func TestManifestCoversConfig(t *testing.T) {
	n := network(t)
	t.Run("sweep", func(t *testing.T) {
		enginetest.ManifestCovers(t, testSweepConfig(2), func(cfg SweepConfig) checkpoint.Manifest {
			return (&Sweep{Net: n, Cfg: cfg}).checkpointManifest()
		})
	})
	t.Run("trust-sweep", func(t *testing.T) {
		enginetest.ManifestCovers(t, testTrustConfig(2), func(cfg TrustSweepConfig) checkpoint.Manifest {
			return (&TrustSweep{Net: n, Cfg: cfg}).checkpointManifest()
		})
	})
}
