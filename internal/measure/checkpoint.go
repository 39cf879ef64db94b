package measure

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// campaignVersion is the Campaign engine's checkpoint-format version;
// bump it when the day-unit encoding or keying changes.
const campaignVersion = 1

// checkpointManifest identifies this campaign for resume purposes: the
// network config plus the whole config but Workers and the directories.
func (c *Campaign) checkpointManifest() checkpoint.Manifest {
	return checkpoint.Manifest{
		Engine:     "measure.Campaign",
		Version:    campaignVersion,
		ConfigHash: checkpoint.HashConfig(c.net.Config(), c.cfg),
		Seed:       c.net.Config().Seed,
	}
}

// dayKey names the checkpoint unit holding one completed day.
func dayKey(day int) string { return fmt.Sprintf("day-%03d", day) }

// sortByIdentity puts one day's merged records into canonical order.
// This is the single canonicalization point of the pipeline: both run
// paths sort here once, and everything downstream — the Dataset fold
// (which assigns intern IDs on first sight), the snapshot, and the
// checkpoint unit bytes — inherits an order independent of worker
// count and map iteration.
func sortByIdentity(recs []*netdb.RouterInfo) {
	sort.Slice(recs, func(i, j int) bool {
		return bytes.Compare(recs[i].Identity[:], recs[j].Identity[:]) < 0
	})
}

// encodeDayUnit serializes one day's merged observations using the
// netdb wire codec. recs must already be in canonical identity-sorted
// order (see sortByIdentity), which makes the unit's bytes deterministic.
func encodeDayUnit(recs []*netdb.RouterInfo) ([]byte, error) {
	var buf bytes.Buffer
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], uint32(len(recs)))
	buf.Write(u[:])
	for _, ri := range recs {
		data, err := ri.Encode()
		if err != nil {
			return nil, fmt.Errorf("measure: encoding day unit: %w", err)
		}
		binary.LittleEndian.PutUint32(u[:], uint32(len(data)))
		buf.Write(u[:])
		buf.Write(data)
	}
	return buf.Bytes(), nil
}

// decodeDayUnit inverts encodeDayUnit. Records come back in the same
// canonical identity-sorted order they were written in, so accumulation
// code cannot tell a resumed day from a computed one.
func decodeDayUnit(data []byte) ([]*netdb.RouterInfo, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("measure: day unit truncated")
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	// n is untrusted: every record carries at least a 4-byte length
	// prefix, so no honest unit holds more than len(data)/4 of them.
	recs := make([]*netdb.RouterInfo, 0, min(int(n), len(data)/4))
	for i := uint32(0); i < n; i++ {
		if len(data) < 4 {
			return nil, fmt.Errorf("measure: day unit truncated at record %d", i)
		}
		sz := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if uint32(len(data)) < sz {
			return nil, fmt.Errorf("measure: day unit truncated at record %d", i)
		}
		ri, err := netdb.DecodeRouterInfo(data[:sz])
		if err != nil {
			return nil, fmt.Errorf("measure: day unit record %d: %w", i, err)
		}
		recs = append(recs, ri)
		data = data[sz:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("measure: day unit has %d trailing bytes", len(data))
	}
	return recs, nil
}
