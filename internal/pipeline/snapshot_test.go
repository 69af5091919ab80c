package pipeline

import (
	"bytes"
	"testing"

	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
)

// pipeStream fabricates a deterministic overflow for interval i that
// alternates between the two loops every 20 intervals, so detectors see
// real phase transitions before and after the snapshot point.
func pipeStream(i int, l1, l2 isa.LoopSpan) *hpm.Overflow {
	span := l1
	if (i/20)%2 == 1 {
		span = l2
	}
	return overflow(i, 200, spanPCs(span, 8)...)
}

// commonVerdicts copies the payload-independent fields of a report's
// verdicts (payloads alias detector-owned scratch).
func commonVerdicts(rep *IntervalReport) []Verdict {
	vs := make([]Verdict, len(rep.Verdicts))
	for i, v := range rep.Verdicts {
		vs[i] = Verdict{Detector: v.Detector, Stable: v.Stable, PhaseChange: v.PhaseChange}
	}
	return vs
}

func TestPipelineSnapshotForkEquality(t *testing.T) {
	prog, l1, l2 := testProgram(t)
	const total, cut = 90, 37

	// Reference: uninterrupted run over the full stream.
	ref, _, _, _ := fullPipeline(t, prog)
	var refV [][]Verdict
	ref.AddObserver(func(rep *IntervalReport) { refV = append(refV, commonVerdicts(rep)) })
	for i := 0; i < total; i++ {
		ref.ProcessOverflow(pipeStream(i, l1, l2))
	}

	// Primary: run to the cut, snapshot, and keep going.
	prim, _, _, _ := fullPipeline(t, prog)
	for i := 0; i < cut; i++ {
		prim.ProcessOverflow(pipeStream(i, l1, l2))
	}
	s1, err := prim.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s2, err := prim.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot (second): %v", err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("Snapshot is not deterministic")
	}

	// Fork: a fresh identically configured pipeline restored from the
	// snapshot must replay the rest of the stream identically.
	fork, _, _, _ := fullPipeline(t, prog)
	if err := fork.Restore(s1); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := fork.Intervals(), prim.Intervals(); got != want {
		t.Fatalf("restored Intervals = %d; want %d", got, want)
	}
	var forkV [][]Verdict
	fork.AddObserver(func(rep *IntervalReport) { forkV = append(forkV, commonVerdicts(rep)) })
	for i := cut; i < total; i++ {
		fork.ProcessOverflow(pipeStream(i, l1, l2))
	}
	if len(forkV) != total-cut {
		t.Fatalf("fork observed %d intervals; want %d", len(forkV), total-cut)
	}
	for i, vs := range forkV {
		want := refV[cut+i]
		for j := range vs {
			if vs[j] != want[j] {
				t.Fatalf("interval %d detector %d: fork %+v, ref %+v", cut+i, j, vs[j], want[j])
			}
		}
	}

	// After replay the fork's full internal state must match the
	// uninterrupted reference bit for bit.
	refSnap, err := ref.Snapshot()
	if err != nil {
		t.Fatalf("ref Snapshot: %v", err)
	}
	forkSnap, err := fork.Snapshot()
	if err != nil {
		t.Fatalf("fork Snapshot: %v", err)
	}
	if !bytes.Equal(refSnap, forkSnap) {
		t.Fatal("fork state diverged from uninterrupted reference")
	}

	// Aggregate stats must survive the round trip too.
	for _, d := range fork.Detectors() {
		if got, want := fork.Stats(d.Name()), ref.Stats(d.Name()); got != want {
			t.Errorf("stats[%s] = %+v; want %+v", d.Name(), got, want)
		}
	}
}

func TestPipelineRestoreRejectsMismatch(t *testing.T) {
	prog, _, _ := testProgram(t)
	pipe, _, _, _ := fullPipeline(t, prog)
	snap, err := pipe.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// Fewer detectors registered than the snapshot carries.
	small := New()
	small.MustRegister(NewGPD(gpd.MustNew(gpd.DefaultConfig())))
	if err := small.Restore(snap); err == nil {
		t.Error("Restore accepted a snapshot with a different detector count")
	}

	// Same count, different registration order/names.
	if err := pipe.Restore(snap[:len(snap)-3]); err == nil {
		t.Error("Restore accepted a truncated snapshot")
	}
	if err := pipe.Restore([]byte("not a snapshot")); err == nil {
		t.Error("Restore accepted garbage")
	}
}

// TestPipelineRestoreAllOrNothing: a snapshot that fails part-way — here
// in the last detector's section — must leave the pipeline exactly as it
// was, not with the earlier detectors already restored. A blob of the
// version-1 layout is rejected the same way.
func TestPipelineRestoreAllOrNothing(t *testing.T) {
	prog, l1, l2 := testProgram(t)
	src, _, _, _ := fullPipeline(t, prog)
	for i := 0; i < 60; i++ {
		src.ProcessOverflow(pipeStream(i, l1, l2))
	}
	good, err := src.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// Break the change-point detector's component tag; it is registered
	// last, so every other detector decodes first.
	corrupt := append([]byte(nil), good...)
	at := bytes.LastIndex(corrupt, []byte("chgpt"))
	if at < 0 {
		t.Fatal("change-point section not found in snapshot")
	}
	corrupt[at] = 'x'
	// Relabel the blob as version 1; the version byte follows the tag.
	v1 := append([]byte(nil), good...)
	v1[8+len(pipelineTag)] = 1

	dst, _, _, _ := fullPipeline(t, prog)
	for i := 0; i < 25; i++ {
		dst.ProcessOverflow(pipeStream(i, l1, l2))
	}
	before, err := dst.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, c := range []struct {
		name string
		blob []byte
	}{{"corrupt last detector", corrupt}, {"version 1", v1}} {
		if err := dst.Restore(c.blob); err == nil {
			t.Errorf("%s: Restore succeeded", c.name)
		}
		after, err := dst.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot after failed Restore: %v", c.name, err)
		}
		if !bytes.Equal(after, before) {
			t.Errorf("%s: failed Restore changed the pipeline", c.name)
		}
	}
	if err := dst.Restore(good); err != nil {
		t.Fatalf("Restore of the intact snapshot: %v", err)
	}
}
