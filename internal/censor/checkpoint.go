package censor

import (
	"context"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/faults"
)

// CellResult is the engine-owned product of one sweep cell: the
// blocking rate against the sweep victim and the blacklist size. The
// paper experiments fold richer products through Each's cursors; this
// standard result is what checkpointed runs spill and resume, and what
// the crash-resume goldens compare.
type CellResult struct {
	Cell
	// BlockingRate is the fraction of the victim's netDb addresses on
	// the cell's blacklist (Figure 13's quantity).
	BlockingRate float64
	// BlacklistLen is the number of distinct blacklisted addresses.
	BlacklistLen int
}

// sweepVersion is the Sweep engine's checkpoint-format version; bump it
// when CellResult or the row keying changes.
const sweepVersion = 1

// checkpointManifest identifies this sweep for resume purposes: the
// network config plus the whole grid, Workers excluded.
func (s *Sweep) checkpointManifest() checkpoint.Manifest {
	return checkpoint.Manifest{
		Engine:     "censor.Sweep",
		Version:    sweepVersion,
		ConfigHash: checkpoint.HashConfig(s.Net.Config(), s.Cfg),
		Seed:       s.Cfg.SeedBase,
	}
}

// Run evaluates the standard result for every cell of the grid,
// returning them in Cells() order. Byte-identical at any Workers value,
// like every engine product.
func (s *Sweep) Run(ctx context.Context) ([]CellResult, error) {
	return s.RunCheckpointed(ctx, "")
}

// RunCheckpointed is Run with crash safety: when dir is non-empty, each
// completed (window, fleet) row spills to a checkpoint.Rows there, and
// a rerun loads finished rows instead of recomputing them — their cells
// never even build a rolling WindowCounter (cursors advance lazily).
// Interrupted or not, the result is byte-identical to an uninterrupted
// Run at any Workers value.
func (s *Sweep) RunCheckpointed(ctx context.Context, dir string) ([]CellResult, error) {
	rows := len(s.Cfg.Windows) * len(s.Cfg.Fleets)
	out := make([]CellResult, rows*len(s.Cfg.Days))
	spill, err := checkpoint.OpenRows(dir, s.checkpointManifest(), out, rows)
	if err != nil {
		return nil, err
	}
	err = s.Each(ctx, func(i int, cu *Cursor) error {
		if spill.Done(i % rows) {
			return nil // resumed row: result already loaded, cursor untouched
		}
		out[i] = CellResult{
			Cell:         cu.Cell(),
			BlockingRate: cu.BlockingRate(),
			BlacklistLen: cu.Blacklist().Len(),
		}
		if err := spill.Finish(i); err != nil {
			return err
		}
		return faults.Hit("censor.sweep.cell")
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
