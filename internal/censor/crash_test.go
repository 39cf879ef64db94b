package censor

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

func crashSweepConfig(workers int) SweepConfig {
	return SweepConfig{
		Fleets:   []int{2, 5},
		Windows:  []int{1, 4},
		Days:     []int{8, 12, 16},
		SeedBase: 700,
		Workers:  workers,
	}
}

// TestCrashResume is the censor sweep's crash-safety golden, stated
// through the shared harness: a run killed by an injected fault and
// resumed from its checkpoint directory yields CellResults
// byte-identical to an uninterrupted run, at every ladder width, with
// obs enabled. Rows checkpoint at (window, fleet) granularity; resumed
// rows never rebuild their rolling WindowCounter (cursors advance
// lazily, so a skipped cell costs nothing).
func TestCrashResume(t *testing.T) {
	n := network(t)
	enginetest.CrashResume(t, 2018, []enginetest.CrashCase{{
		Name:  "blocking-grid",
		Point: "censor.sweep.cell",
		Run: func(t testing.TB, dir string, workers int) (any, error) {
			sw, err := NewSweep(n, crashSweepConfig(workers))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sw.RunCheckpointed(context.Background(), dir)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	}})
}

// TestSweepCheckpointSpillsEachRowOnce pins the per-row countdown that
// decides when a row is final: an uninterrupted checkpointed run
// commits exactly one unit per (window, fleet) row at every ladder
// width, and each unit holds all of that row's cells in day order.
func TestSweepCheckpointSpillsEachRowOnce(t *testing.T) {
	n := network(t)
	prev := obs.Active()
	t.Cleanup(func() { obs.Enable(prev) })
	for _, w := range enginetest.Workers() {
		reg := obs.NewRegistry()
		obs.Enable(reg)
		sw, err := NewSweep(n, crashSweepConfig(w))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		res, err := sw.RunCheckpointed(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		rows := len(sw.Cfg.Windows) * len(sw.Cfg.Fleets)
		if got := reg.Counter("i2p_checkpoint_rows_written_total", "").Load(); got != uint64(rows) {
			t.Fatalf("Workers=%d: %d units written, want one per row (%d)", w, got, rows)
		}
		// Reopening the directory loads every row back into its cells.
		resumed := make([]CellResult, len(res))
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
			t.Fatalf("Workers=%d: row units hold %v, want %v", w, resumed, res)
		}
	}
}

// TestSweepRunMatchesCursorFold pins the engine-owned Run product to
// the cursor accessors it folds: Run's CellResults must equal a manual
// Each fold of the same accessors, in Cells() order.
func TestSweepRunMatchesCursorFold(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, crashSweepConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cells := sw.Cells()
	if len(res) != len(cells) {
		t.Fatalf("Run returned %d results for %d cells", len(res), len(cells))
	}
	for i, cell := range cells {
		if res[i].Cell != cell {
			t.Fatalf("result %d carries cell %+v, want %+v", i, res[i].Cell, cell)
		}
		if want := sw.BlockingRate(cell); res[i].BlockingRate != want {
			t.Fatalf("cell %d: BlockingRate %v, want from-scratch %v", i, res[i].BlockingRate, want)
		}
		if want := sw.Blacklist(cell).Len(); res[i].BlacklistLen != want {
			t.Fatalf("cell %d: BlacklistLen %d, want from-scratch %d", i, res[i].BlacklistLen, want)
		}
	}
}

// TestSweepCheckpointManifestMismatch locks the refusal path at the
// engine level: a checkpoint directory written under one seed must not
// resume a sweep with another.
func TestSweepCheckpointMismatchRefused(t *testing.T) {
	n := network(t)
	dir := t.TempDir()
	sw, err := NewSweep(n, crashSweepConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.RunCheckpointed(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	cfg := crashSweepConfig(1)
	cfg.SeedBase = 701
	sw2, err := NewSweep(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sw2.RunCheckpointed(context.Background(), dir)
	var mm *checkpoint.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("resume under a different seed: err = %v, want *checkpoint.MismatchError", err)
	}
	if mm.Field != "seed" {
		t.Fatalf("MismatchError.Field = %q, want \"seed\"", mm.Field)
	}
}

// TestSweepCheckpointRefusesOtherNetwork pins the network into the
// manifest: the sweep's SeedBase is unchanged, but a network drawn from
// another seed observes different peers, so its sweep must not resume
// rows computed on the first one.
func TestSweepCheckpointRefusesOtherNetwork(t *testing.T) {
	n := network(t)
	dir := t.TempDir()
	sw, err := NewSweep(n, crashSweepConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.RunCheckpointed(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	cfg := n.Config()
	cfg.Seed++
	other, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw2, err := NewSweep(other, crashSweepConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sw2.RunCheckpointed(context.Background(), dir)
	var mm *checkpoint.MismatchError
	if !errors.As(err, &mm) || mm.Field != "config_hash" {
		t.Fatalf("resume on a network with another seed: err = %v, want a config_hash *checkpoint.MismatchError", err)
	}
}

// TestSweepManifestCoversConfig asserts every SweepConfig field but
// Workers reaches the checkpoint manifest.
func TestSweepManifestCoversConfig(t *testing.T) {
	n := network(t)
	enginetest.ManifestCovers(t, crashSweepConfig(2), func(cfg SweepConfig) checkpoint.Manifest {
		return (&Sweep{Net: n, Cfg: cfg}).checkpointManifest()
	})
}
