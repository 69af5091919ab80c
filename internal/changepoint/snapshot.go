package changepoint

import (
	"fmt"

	"regionmon/internal/snap"
)

// Detector checkpointing. A snapshot captures the mutable observation
// state — the metric window ring (with its exact accounting) and the
// change bookkeeping — but not the configuration: Restore targets a
// detector constructed with the same Config, and a resumed detector then
// produces a byte-identical verdict stream for the same subsequent
// inputs (evaluation cadence is derived from the ring's absolute
// observation count, which the ring snapshot carries).

const detectorTag = "chgpt"

// AppendSnapshot encodes the detector's mutable state onto e.
func (d *Detector) AppendSnapshot(e *snap.Encoder) {
	e.Header(detectorTag, 1)
	e.I64(d.lastChange)
	e.Int(d.changes)
	d.hist.AppendSnapshot(e)
}

// RestoreSnapshot decodes state written by AppendSnapshot into d. The
// snapshot's window capacity must match the detector's Window.
func (d *Detector) RestoreSnapshot(dec *snap.Decoder) error {
	dec.Header(detectorTag, 1)
	lastChange := dec.I64()
	changes := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if changes < 0 {
		return fmt.Errorf("changepoint: snapshot has negative change count %d", changes)
	}
	if err := d.hist.RestoreSnapshot(dec); err != nil {
		return err
	}
	d.lastChange = lastChange
	d.changes = changes
	return nil
}

// Snapshot returns the detector's state as a standalone versioned byte
// snapshot.
func (d *Detector) Snapshot() []byte {
	e := snap.NewEncoder()
	d.AppendSnapshot(e)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// Restore replaces the detector's state from a Snapshot produced by a
// detector with the same configuration. On error the detector is left as
// it was.
func (d *Detector) Restore(data []byte) error { return snap.Restore(d, data) }
