package altdetect

import (
	"fmt"
	"sort"

	"regionmon/internal/snap"
)

// Checkpointing for the related-work detectors. As with the other
// detectors, a snapshot captures mutable observation state only; Restore
// targets a detector built over the same program with the same threshold.
// The working-set signature is a map, so its snapshot sorts the block
// indices — map iteration order must never reach the encoded bytes, or two
// snapshots of identical state would differ.

const (
	bbvTag = "bbv"
	wsTag  = "wset"
)

// AppendSnapshot encodes the detector's mutable state onto e.
func (d *BBV) AppendSnapshot(e *snap.Encoder) {
	e.Header(bbvTag, 1)
	e.Bool(d.hasPrev)
	e.F64s(d.prev)
	e.Int(d.changes)
	e.Int(d.total)
}

// RestoreSnapshot decodes state written by AppendSnapshot into d. The
// snapshot's vector length must match the detector's program.
func (d *BBV) RestoreSnapshot(dec *snap.Decoder) error {
	dec.Header(bbvTag, 1)
	hasPrev := dec.Bool()
	prev := dec.F64s()
	changes := dec.Int()
	total := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(prev) != len(d.prev) {
		return fmt.Errorf("altdetect: BBV snapshot has %d blocks, detector has %d", len(prev), len(d.prev))
	}
	copy(d.prev, prev)
	d.hasPrev = hasPrev
	d.changes = changes
	d.total = total
	return nil
}

// Snapshot returns the detector's state as a standalone versioned byte
// snapshot.
func (d *BBV) Snapshot() []byte {
	e := snap.NewEncoder()
	d.AppendSnapshot(e)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// Restore replaces the detector's state from a Snapshot produced by a
// detector over the same program. On error the detector is left as it
// was.
func (d *BBV) Restore(data []byte) error { return snap.Restore(d, data) }

// AppendSnapshot encodes the detector's mutable state onto e. The previous
// working set is written as sorted block indices for determinism.
func (d *WorkingSet) AppendSnapshot(e *snap.Encoder) {
	e.Header(wsTag, 1)
	prev := make([]int, 0, len(d.prev))
	for b := range d.prev {
		prev = append(prev, b)
	}
	sort.Ints(prev)
	e.Ints(prev)
	e.Int(d.changes)
	e.Int(d.total)
}

// RestoreSnapshot decodes state written by AppendSnapshot into d.
func (d *WorkingSet) RestoreSnapshot(dec *snap.Decoder) error {
	dec.Header(wsTag, 1)
	prev := dec.Ints()
	changes := dec.Int()
	total := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	for _, b := range prev {
		if b < 0 || b >= d.bi.n {
			return fmt.Errorf("altdetect: working-set snapshot block %d outside program (%d blocks)", b, d.bi.n)
		}
	}
	clear(d.prev)
	for _, b := range prev {
		d.prev[b] = struct{}{}
	}
	d.changes = changes
	d.total = total
	return nil
}

// Snapshot returns the detector's state as a standalone versioned byte
// snapshot.
func (d *WorkingSet) Snapshot() []byte {
	e := snap.NewEncoder()
	d.AppendSnapshot(e)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// Restore replaces the detector's state from a Snapshot produced by a
// detector over the same program. On error the detector is left as it
// was.
func (d *WorkingSet) Restore(data []byte) error { return snap.Restore(d, data) }
