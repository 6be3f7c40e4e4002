package xlist

import (
	"encoding/binary"
	"fmt"

	"sdso/internal/diff"
	"sdso/internal/store"
)

// EncodeDiffs serializes a batch of object diffs into a DATA message
// payload.
func EncodeDiffs(diffs []ObjDiff) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(diffs)))
	for _, od := range diffs {
		buf = binary.AppendUvarint(buf, uint64(od.Obj))
		buf = binary.AppendUvarint(buf, uint64(od.Version))
		buf = binary.AppendUvarint(buf, uint64(diff.EncodedLen(od.D)))
		buf = diff.AppendEncode(buf, od.D)
	}
	return buf
}

// DeltaRecord is one entry of a delta-capable DATA payload (sent under
// wire.ModeDeltaPayload): either a full object diff — exactly what an
// ObjDiff carries — or an XOR delta against a base state the receiver is
// expected to hold, identified by the base's version and fingerprint so a
// diverged receiver rejects it instead of decoding garbage.
type DeltaRecord struct {
	Obj     store.ID
	Version int64
	// Delta selects the encoding: false means D holds a full diff, true
	// means X holds diff.EncodeXOR output against (BaseVer, BaseHash).
	Delta    bool
	D        diff.Diff
	BaseVer  int64
	BaseHash uint32
	X        []byte
}

// EncodeDeltaRecords serializes a batch of delta-capable records. The
// layout extends EncodeDiffs per entry with a flag byte; full records add
// nothing else, delta records carry the base version, a fixed 4-byte base
// fingerprint, and the XOR delta bytes.
func EncodeDeltaRecords(recs []DeltaRecord) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(recs)))
	for _, rec := range recs {
		buf = binary.AppendUvarint(buf, uint64(rec.Obj))
		buf = binary.AppendUvarint(buf, uint64(rec.Version))
		if !rec.Delta {
			buf = append(buf, 0)
			buf = binary.AppendUvarint(buf, uint64(diff.EncodedLen(rec.D)))
			buf = diff.AppendEncode(buf, rec.D)
			continue
		}
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(rec.BaseVer))
		buf = binary.LittleEndian.AppendUint32(buf, rec.BaseHash)
		buf = binary.AppendUvarint(buf, uint64(len(rec.X)))
		buf = append(buf, rec.X...)
	}
	return buf
}

// DecodeDeltaRecords parses a payload produced by EncodeDeltaRecords.
func DecodeDeltaRecords(buf []byte) ([]DeltaRecord, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("xlist: corrupt delta batch header")
	}
	buf = buf[n:]
	if count > uint64(len(buf))+1 {
		return nil, fmt.Errorf("xlist: delta batch claims %d entries in %d bytes", count, len(buf))
	}
	out := make([]DeltaRecord, 0, count)
	for i := uint64(0); i < count; i++ {
		obj, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt object id in delta entry %d", i)
		}
		buf = buf[n:]
		ver, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt version in delta entry %d", i)
		}
		buf = buf[n:]
		if len(buf) < 1 || buf[0] > 1 {
			return nil, fmt.Errorf("xlist: bad flag in delta entry %d", i)
		}
		isDelta := buf[0] == 1
		buf = buf[1:]
		rec := DeltaRecord{Obj: store.ID(obj), Version: int64(ver), Delta: isDelta}
		if !isDelta {
			dlen, n := binary.Uvarint(buf)
			if n <= 0 {
				return nil, fmt.Errorf("xlist: corrupt diff length in delta entry %d", i)
			}
			buf = buf[n:]
			if dlen > uint64(len(buf)) {
				return nil, fmt.Errorf("xlist: truncated diff in delta entry %d", i)
			}
			d, err := diff.Decode(buf[:dlen])
			if err != nil {
				return nil, fmt.Errorf("xlist: delta entry %d: %w", i, err)
			}
			buf = buf[dlen:]
			rec.D = d
			out = append(out, rec)
			continue
		}
		bver, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt base version in delta entry %d", i)
		}
		buf = buf[n:]
		if len(buf) < 4 {
			return nil, fmt.Errorf("xlist: truncated base hash in delta entry %d", i)
		}
		rec.BaseVer = int64(bver)
		rec.BaseHash = binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		xlen, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt delta length in entry %d", i)
		}
		buf = buf[n:]
		if xlen > uint64(len(buf)) {
			return nil, fmt.Errorf("xlist: truncated delta in entry %d", i)
		}
		rec.X = append([]byte(nil), buf[:xlen]...)
		buf = buf[xlen:]
		out = append(out, rec)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("xlist: %d trailing bytes in delta batch", len(buf))
	}
	return out, nil
}

// DecodeDiffs parses a DATA message payload produced by EncodeDiffs.
func DecodeDiffs(buf []byte) ([]ObjDiff, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("xlist: corrupt diff batch header")
	}
	buf = buf[n:]
	if count > uint64(len(buf))+1 {
		return nil, fmt.Errorf("xlist: diff batch claims %d entries in %d bytes", count, len(buf))
	}
	out := make([]ObjDiff, 0, count)
	for i := uint64(0); i < count; i++ {
		obj, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt object id in entry %d", i)
		}
		buf = buf[n:]
		ver, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt version in entry %d", i)
		}
		buf = buf[n:]
		dlen, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt diff length in entry %d", i)
		}
		buf = buf[n:]
		if dlen > uint64(len(buf)) {
			return nil, fmt.Errorf("xlist: truncated diff in entry %d", i)
		}
		d, err := diff.Decode(buf[:dlen])
		if err != nil {
			return nil, fmt.Errorf("xlist: entry %d: %w", i, err)
		}
		buf = buf[dlen:]
		out = append(out, ObjDiff{Obj: store.ID(obj), Version: int64(ver), D: d})
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("xlist: %d trailing bytes in diff batch", len(buf))
	}
	return out, nil
}
