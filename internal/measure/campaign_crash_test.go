package measure

import (
	"context"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
)

// TestCampaignCrashResume is the campaign's crash-safety golden, stated
// through the shared harness: a campaign killed by an injected fault at
// a day boundary and resumed from its checkpoint directory yields a
// Dataset byte-identical to an uninterrupted run, at every ladder
// width. The day unit round-trips through the netdb wire codec, so the
// resumed accumulation folds exactly the value fields the live capture
// produced.
func TestCampaignCrashResume(t *testing.T) {
	n := parallelTestNet(t)
	enginetest.CrashResume(t, 2018, []enginetest.CrashCase{{
		Name:  "campaign-days",
		Point: "measure.campaign.day",
		Run: func(t testing.TB, dir string, workers int) (any, error) {
			c, err := NewCampaign(n, CampaignConfig{
				Observers:     DefaultObserverFleet(4),
				StartDay:      0,
				EndDay:        8,
				Workers:       workers,
				CheckpointDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			ds, err := c.RunContext(context.Background())
			if err != nil {
				return nil, err
			}
			return ds, nil
		},
	}})
}

// TestCampaignManifestCoversConfig asserts every CampaignConfig field
// but Workers and the output directories reaches the checkpoint
// manifest.
func TestCampaignManifestCoversConfig(t *testing.T) {
	n := parallelTestNet(t)
	cfg := CampaignConfig{
		Observers:     DefaultObserverFleet(2),
		StartDay:      1,
		EndDay:        8,
		SnapshotDir:   "snaps",
		Workers:       2,
		CheckpointDir: "ckpt",
	}
	enginetest.ManifestCovers(t, cfg, func(cfg CampaignConfig) checkpoint.Manifest {
		return (&Campaign{cfg: cfg, net: n}).checkpointManifest()
	})
}
