package distrib

import (
	"context"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/measure"
)

// Checkpoint-format versions; bump when a result encoding or unit
// keying changes.
const (
	sweepVersion      = 2
	trustSweepVersion = 1
)

// checkpointManifest identifies this arms-race sweep for resume
// purposes: the network config plus the whole config, Workers excluded.
func (s *Sweep) checkpointManifest() checkpoint.Manifest {
	return checkpoint.Manifest{
		Engine:     "distrib.Sweep",
		Version:    sweepVersion,
		ConfigHash: checkpoint.HashConfig(s.Net.Config(), s.Cfg),
		Seed:       s.Cfg.SeedBase,
	}
}

// RunCheckpointed is Run with crash safety: when dir is non-empty, each
// completed cell spills there as a one-cell checkpoint.Rows row (cells
// carry no rolling state, so the cell is the natural atom), and a rerun
// loads finished cells instead of re-simulating their arms race.
// Interrupted or not, the result is byte-identical to an uninterrupted
// Run at any Workers value.
func (s *Sweep) RunCheckpointed(ctx context.Context, dir string) ([]CellResult, error) {
	cells := s.Cells()
	results := make([]CellResult, len(cells))
	spill, err := checkpoint.OpenRows(dir, s.checkpointManifest(), results, len(cells))
	if err != nil {
		return nil, err
	}
	err = measure.FanOut(ctx, len(cells), s.Cfg.Workers, func(i int) error {
		if spill.Done(i) {
			return nil // resumed cell: result already loaded
		}
		res, err := s.runCell(cells[i])
		if err != nil {
			return err
		}
		results[i] = res
		if err := spill.Finish(i); err != nil {
			return err
		}
		return faults.Hit("distrib.sweep.cell")
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// checkpointManifest identifies this trust sweep for resume purposes:
// the network config plus the whole config, Workers excluded.
func (s *TrustSweep) checkpointManifest() checkpoint.Manifest {
	return checkpoint.Manifest{
		Engine:     "distrib.TrustSweep",
		Version:    trustSweepVersion,
		ConfigHash: checkpoint.HashConfig(s.Net.Config(), s.Cfg),
		Seed:       s.Cfg.SeedBase,
	}
}

// RunCheckpointed is Run with crash safety: when dir is non-empty, each
// completed (distributor, enumerator) row spills to a checkpoint.Rows
// there, and a rerun loads finished rows instead of replaying them. A
// row's day h state is day h-1's plus one step, so a partial row is
// worthless for resume, while a complete one never builds its
// trustState. Interrupted or not, the result is byte-identical to an
// uninterrupted Run at any Workers value.
func (s *TrustSweep) RunCheckpointed(ctx context.Context, dir string) ([]TrustCellResult, error) {
	cells := s.Cells()
	results := make([]TrustCellResult, len(cells))
	rows := len(s.Cfg.Enumerators) * len(s.Cfg.Distributors)
	spill, err := checkpoint.OpenRows(dir, s.checkpointManifest(), results, rows)
	if err != nil {
		return nil, err
	}
	states := make([]*trustState, rows)
	err = measure.FanRows(ctx, s.rowPlan(cells), s.Cfg.Workers, func(row, i int) error {
		c := cells[i]
		if spill.Done(row) {
			return nil // resumed row: results already loaded, no state built
		}
		if states[row] == nil {
			states[row] = s.newTrustState(c.Dist, c.Enum)
		}
		states[row].advanceTo(c.Day)
		results[i] = states[row].result(c)
		if err := spill.Finish(i); err != nil {
			return err
		}
		return faults.Hit("distrib.trustsweep.cell")
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
