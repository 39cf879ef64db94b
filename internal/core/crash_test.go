package core

import (
	"context"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// crashIDs are cheap censorship experiments: enough of them that a
// mid-run crash leaves committed and uncommitted units behind, cheap
// enough that the harness's full ladder stays fast.
var crashIDs = []string{"reseed-blocking", "port-blocking", "dpi-fingerprinting"}

// TestRunAllCrashResume is the registry runner's crash-safety golden,
// stated through the shared harness: a RunAll killed by an injected
// fault after some experiment commits and then resumed from the same
// checkpoint directory yields Results byte-identical to an
// uninterrupted run, at every ladder width. One study per width is
// cached (the network build dominates); only CheckpointDir changes
// between runs, which the manifest deliberately excludes.
func TestRunAllCrashResume(t *testing.T) {
	studies := map[int]*Study{}
	studyFor := func(t testing.TB, workers int) *Study {
		if s, ok := studies[workers]; ok {
			return s
		}
		opts := DefaultOptions()
		opts.TargetDailyPeers = 1200
		opts.Workers = workers
		s, err := NewStudy(opts)
		if err != nil {
			t.Fatal(err)
		}
		studies[workers] = s
		return s
	}
	enginetest.CrashResume(t, 2018, []enginetest.CrashCase{{
		Name:  "runall",
		Point: "core.runall.experiment",
		Run: func(t testing.TB, dir string, workers int) (any, error) {
			s := studyFor(t, workers)
			s.Opts.CheckpointDir = dir
			res, err := s.RunAll(context.Background(), crashIDs...)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	}})
}

// TestRunAllManifestCoversOptions asserts every Options field but
// Workers and CheckpointDir reaches the study's checkpoint manifest.
func TestRunAllManifestCoversOptions(t *testing.T) {
	net, err := sim.New(sim.Config{Seed: 3, Days: 40, TargetDailyPeers: 300})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Workers, opts.CheckpointDir = 2, "ckpt"
	enginetest.ManifestCovers(t, opts, func(opts Options) checkpoint.Manifest {
		return (&Study{Opts: opts, Net: net}).checkpointManifest()
	})
}
