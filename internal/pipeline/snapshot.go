package pipeline

// Pipeline checkpointing. A pipeline snapshot nests one component
// snapshot per registered detector (in registration order, keyed by
// registered name) plus the pipeline's own aggregate counters, so an
// entire monitoring stack checkpoints through a single Snapshot call and
// resumes mid-stream with a byte-identical subsequent verdict stream.
//
// Restore targets a pipeline with the same detectors registered in the
// same order over the same program; the executor/hpm side of a run is
// deliberately not captured (resuming a stream means re-attaching the
// restored stack to the live sample source — see the System facade).

import (
	"fmt"

	"regionmon/internal/snap"
)

// Snapshotter is implemented by detectors (and adapters) that support
// checkpointing. AppendSnapshot encodes the component's mutable state;
// RestoreSnapshot decodes it back into an identically configured
// component. A built-in adapter forwards both to its wrapped detector,
// which writes its own component header; the adapter's last-verdict
// storage is not captured, since the next ObserveInterval rebuilds it.
type Snapshotter interface {
	AppendSnapshot(e *snap.Encoder) error
	RestoreSnapshot(d *snap.Decoder) error
}

// Restore accepts only pipelineVersion: each version is one layout of the
// detector sections.
const (
	pipelineTag     = "pipeline"
	pipelineVersion = 2
)

// Snapshot serializes the pipeline and every registered detector to a
// versioned, deterministic byte form. It fails if any registered detector
// does not implement Snapshotter.
func (p *Pipeline) Snapshot() ([]byte, error) {
	e := snap.NewEncoder()
	e.Header(pipelineTag, pipelineVersion)
	e.Int(p.intervals)
	e.Int(len(p.dets))
	for i, d := range p.dets {
		s, ok := d.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("pipeline: detector %q (%T) does not support snapshotting", d.Name(), d)
		}
		e.String(d.Name())
		st := p.stats[i]
		e.Int(st.Intervals)
		e.Int(st.StableIntervals)
		e.Int(st.PhaseChanges)
		if err := s.AppendSnapshot(e); err != nil {
			return nil, fmt.Errorf("pipeline: snapshotting detector %q: %w", d.Name(), err)
		}
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

// Restore replaces the pipeline's state (and every registered detector's)
// from a Snapshot. The pipeline must have the same detectors registered
// in the same order as the snapshotted one. Restore is all-or-nothing: on
// error the pipeline and every detector are back in their state before
// the call.
func (p *Pipeline) Restore(data []byte) error {
	prev, err := p.Snapshot()
	if err != nil {
		return err
	}
	if err := p.restore(data); err != nil {
		if rerr := p.restore(prev); rerr != nil {
			return fmt.Errorf("%w (rolling back: %v)", err, rerr)
		}
		return err
	}
	return nil
}

// restore decodes data into the pipeline, detector by detector; a failure
// part-way leaves the earlier detectors restored. Every detector is a
// Snapshotter: Restore took a Snapshot first.
func (p *Pipeline) restore(data []byte) error {
	d := snap.NewDecoder(data)
	v := d.Header(pipelineTag, pipelineVersion)
	intervals := d.Int()
	count := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if v != pipelineVersion {
		return fmt.Errorf("pipeline: snapshot version %d, want %d", v, pipelineVersion)
	}
	if count != len(p.dets) {
		return fmt.Errorf("pipeline: snapshot has %d detectors, pipeline has %d", count, len(p.dets))
	}
	stats := make([]DetectorStats, count)
	for i, det := range p.dets {
		name := d.String()
		stats[i].Intervals = d.Int()
		stats[i].StableIntervals = d.Int()
		stats[i].PhaseChanges = d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if name != det.Name() {
			return fmt.Errorf("pipeline: snapshot detector %d is %q, pipeline has %q", i, name, det.Name())
		}
		if err := det.(Snapshotter).RestoreSnapshot(d); err != nil {
			return fmt.Errorf("pipeline: restoring detector %q: %w", name, err)
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	p.intervals = intervals
	copy(p.stats, stats)
	return nil
}
