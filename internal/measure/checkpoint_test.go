package measure

import (
	"bytes"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// FuzzDecodeDayUnit feeds decodeDayUnit arbitrary bytes: it must never
// panic or size an allocation from an unchecked count, and whatever it
// accepts must re-encode to the same bytes. The seeds are a real merged
// day, a truncated copy of it, and headers claiming 2^28-1 and 2^32-1
// records with no payload behind them.
func FuzzDecodeDayUnit(f *testing.F) {
	n, err := sim.New(sim.Config{Seed: 13, Days: 2, TargetDailyPeers: 200})
	if err != nil {
		f.Fatal(err)
	}
	c, err := NewCampaign(n, CampaignConfig{Observers: DefaultObserverFleet(3), StartDay: 0, EndDay: 1})
	if err != nil {
		f.Fatal(err)
	}
	day, err := encodeDayUnit(c.mergeDay(0, make([]int32, n.PeerCount())))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(day)
	f.Add(day[:len(day)/2])
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeDayUnit(data)
		if err != nil {
			return
		}
		again, err := encodeDayUnit(recs)
		if err != nil {
			t.Fatalf("decoded unit does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("decoded unit re-encodes to different bytes")
		}
	})
}
