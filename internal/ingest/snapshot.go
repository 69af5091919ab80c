package ingest

import (
	"fmt"

	"regionmon/internal/snap"
	"regionmon/internal/vhash"
)

// Snapshot and Restore checkpoint the whole fleet. The encoding is keyed
// by stream, not by shard: a snapshot taken from a 16-shard fleet restores
// into a 1-shard fleet (and vice versa), because sharding is a throughput
// topology, not stream state. Each stream contributes its interval count,
// its verdict-digest sum, and its pipeline's own nested snapshot; the
// owner adds the producer-side accepted/dropped counters.
//
// Both operations ride the rings in-band (one control op per stream), so
// the captured state is exactly "after every batch pushed before the
// call" — the same cut Drain would establish — without stopping the
// workers.

const (
	fleetTag  = "ingest-fleet"
	streamTag = "ingest-stream"
)

// Snapshot serializes every stream's detector stack, digest and counters.
func (f *Fleet) Snapshot() ([]byte, error) {
	e := snap.NewEncoder()
	e.Header(fleetTag, 1)
	e.Int(len(f.shardOf))
	for id := range f.shardOf {
		c := f.roundTrip(&control{op: opSnapshot, stream: id})
		if c.err != nil {
			return nil, fmt.Errorf("ingest: snapshot stream %d: %w", id, c.err)
		}
		e.U64(f.accepted[id])
		e.U64(f.dropped[id])
		e.Bytes64(c.out)
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

// Restore loads a fleet snapshot into this fleet. The stream count must
// match; the shard count need not (stream state is topology-independent).
// The fleet's streams must be built from the same configuration as the
// snapshotted ones — nested pipeline restores validate shape and reject
// mismatches. Restore is all-or-nothing: if any stream fails, the streams
// already loaded are swapped back, leaving the fleet as it was on entry.
func (f *Fleet) Restore(data []byte) error {
	d := snap.NewDecoder(data)
	d.Header(fleetTag, 1)
	n := d.Int()
	if err := d.Err(); err != nil {
		return fmt.Errorf("ingest: restore: %w", err)
	}
	if n != len(f.shardOf) {
		return fmt.Errorf("ingest: snapshot has %d streams, fleet has %d", n, len(f.shardOf))
	}
	type streamState struct {
		accepted, dropped uint64
		blob              []byte
	}
	states := make([]streamState, n)
	for id := range states {
		states[id].accepted = d.U64()
		states[id].dropped = d.U64()
		states[id].blob = d.Bytes64()
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("ingest: restore: %w", err)
	}
	undo := make([]*control, 0, n)
	for id := range states {
		c := f.roundTrip(&control{op: opRestore, stream: id, data: states[id].blob})
		if c.err != nil {
			err := fmt.Errorf("ingest: restore stream %d: %w", id, c.err)
			for i := len(undo) - 1; i >= 0; i-- {
				u := undo[i]
				back := f.roundTrip(&control{op: opRestore, stream: u.stream, data: u.out, failed: u.failed})
				if back.err != nil {
					return fmt.Errorf("%w (rolling back stream %d: %v)", err, u.stream, back.err)
				}
			}
			return err
		}
		undo = append(undo, c)
	}
	for id := range states {
		f.accepted[id] = states[id].accepted
		f.dropped[id] = states[id].dropped
	}
	return nil
}

// snapshot encodes one stream's worker-side state. Worker goroutine only.
func (st *stream) snapshot() ([]byte, error) {
	if st.err != nil {
		return nil, st.err
	}
	return st.encode()
}

// encode is snapshot without the failed-stream check.
func (st *stream) encode() ([]byte, error) {
	pb, err := st.pipe.Snapshot()
	if err != nil {
		return nil, err
	}
	e := snap.NewEncoder()
	e.Header(streamTag, 1)
	e.Int(st.intervals)
	e.U64(st.dig.Sum())
	e.Bytes64(pb)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

// swap loads data as the stream's state, with failed as its
// verdict-hashing error, and returns the state and error it replaced:
// swapping those back undoes the call. Worker goroutine only.
func (st *stream) swap(data []byte, failed error) (prev []byte, prevFailed, err error) {
	if prev, err = st.encode(); err != nil {
		return nil, nil, err
	}
	if err = st.restore(data); err != nil {
		return nil, nil, err
	}
	prevFailed, st.err = st.err, failed
	return prev, prevFailed, nil
}

// restore loads one stream's worker-side state. Worker goroutine only.
func (st *stream) restore(data []byte) error {
	d := snap.NewDecoder(data)
	d.Header(streamTag, 1)
	intervals := d.Int()
	sum := d.U64()
	pb := d.Bytes64()
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%d trailing bytes after stream state", d.Remaining())
	}
	if err := st.pipe.Restore(pb); err != nil {
		return err
	}
	st.intervals = intervals
	st.dig = vhash.Resume(sum)
	return nil
}
