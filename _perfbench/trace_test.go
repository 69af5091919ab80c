package main

import (
	"bytes"
	"math"
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/pipeline"
	"regionmon/internal/soak"
	"regionmon/internal/vhash"
)

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a: union 10..50
		{Name: "a.child", Parent: 1, Start: 12, End: 18},
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the root's end
		{Name: "other", Parent: -1, Start: 200, End: 210},
	}
	want := []int64{
		100 - 40 - 10, // root minus 10..50 and 90..100
		20 - 6,
		30,
		6,
		30,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %q self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	lt := sumLayers([]*spanLog{{spans: spans}, nil})
	if lt.total["root"] != 100 || lt.self["root"] != 50 || lt.count["a"] != 1 {
		t.Errorf("sumLayers total %d self %d count %d; want 100 50 1", lt.total["root"], lt.self["root"], lt.count["a"])
	}
}

// feed drives n soak intervals through p.
func feed(t *testing.T, p *pipeline.Pipeline, n int) {
	t.Helper()
	_, loops, err := soak.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	g := soak.NewWorkload(7, loops, soakSamples)
	ov := soak.NewOverflowBatch(1, soakSamples)[0]
	for i := 0; i < n; i++ {
		p.ProcessOverflow(g.IntervalInto(i, ov))
	}
}

func soakStack(t *testing.T) *pipeline.Pipeline {
	t.Helper()
	prog, _, err := soak.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	p, err := soak.NewStack(prog)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The timing decorator must be invisible to checkpointing and to the
// verdict stream: a timed stack snapshots byte-equal to a bare one fed the
// same intervals, restores from it, and emits the same digest.
func TestTimedDetectorForwardsSnapshots(t *testing.T) {
	const n = 300
	bare := soakStack(t)
	bareDig := vhash.New()
	bare.AddObserver(func(rep *pipeline.IntervalReport) { bareDig.Report(rep) })
	feed(t, bare, n)

	pr := newProbe(0, n, false, true, n*10)
	timed, err := instrument(soakStack(t), pr)
	if err != nil {
		t.Fatal(err)
	}
	timed.AddObserver(pr.observe)
	feed(t, timed, n)

	if pr.hashErr != nil || pr.dig.Sum() != bareDig.Sum() {
		t.Fatalf("timed digest %#x != bare %#x (err %v)", pr.dig.Sum(), bareDig.Sum(), pr.hashErr)
	}
	want, err := bare.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := timed.Snapshot()
	if err != nil {
		t.Fatalf("timed Snapshot (AppendSnapshot forwarding): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("timed snapshot (%d bytes) differs from bare (%d bytes)", len(got), len(want))
	}

	fresh, err := instrument(soakStack(t), newProbe(0, 1, false, true, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(want); err != nil {
		t.Fatalf("timed Restore (RestoreSnapshot forwarding): %v", err)
	}
	again, err := fresh.Snapshot()
	if err != nil || !bytes.Equal(again, want) {
		t.Fatalf("restored timed stack re-snapshots differently (err %v)", err)
	}

	// Every detector call was spanned under its interval's span.
	lt := sumLayers([]*spanLog{pr.log})
	if lt.count[spanInterval] != n || lt.count["changepoint.observe"] != n || lt.count[spanVhash] != n {
		t.Errorf("span counts interval %d changepoint %d vhash %d, want %d each",
			lt.count[spanInterval], lt.count["changepoint.observe"], lt.count[spanVhash], n)
	}
	if lt.self[spanInterval] < 0 || lt.self[spanInterval] >= lt.total[spanInterval] {
		t.Errorf("interval self time %d outside [0, %d)", lt.self[spanInterval], lt.total[spanInterval])
	}
}

type bareDetector struct{}

func (bareDetector) Name() string { return "bare" }
func (bareDetector) ObserveInterval(*hpm.Overflow) pipeline.Verdict {
	return pipeline.Verdict{Detector: "bare"}
}

func TestTimedDetectorWithoutSnapshotter(t *testing.T) {
	p := pipeline.New()
	p.MustRegister(bareDetector{})
	timed, err := instrument(p, newProbe(0, 1, false, true, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := timed.Snapshot(); err == nil {
		t.Fatal("snapshot of a wrapped non-snapshotter succeeded")
	}
}

// Without a span log the decorator times each interval as a whole and
// leaves the verdict stream as it is.
func TestTimedDetectorUntracedTimesIntervals(t *testing.T) {
	const n = 50
	bare := soakStack(t)
	bareDig := vhash.New()
	bare.AddObserver(func(rep *pipeline.IntervalReport) { bareDig.Report(rep) })
	feed(t, bare, n)

	pr := newProbe(0, n, true, false, 0)
	timed, err := instrument(soakStack(t), pr)
	if err != nil {
		t.Fatal(err)
	}
	timed.AddObserver(pr.observe)
	feed(t, timed, n)

	if pr.dig.Sum() != bareDig.Sum() {
		t.Fatalf("timed digest %#x != bare %#x", pr.dig.Sum(), bareDig.Sum())
	}
	ivs := pr.intervalTimes()
	if len(ivs) != n || pr.counts.Intervals != n {
		t.Fatalf("%d interval times, %d counted; want %d", len(ivs), pr.counts.Intervals, n)
	}
	for i, v := range ivs {
		if v <= 0 {
			t.Fatalf("interval %d time %d, want > 0", i, v)
		}
	}
}

func TestOverheadFracPairsIntervals(t *testing.T) {
	untraced := func(ns ...int64) *probe { return &probe{ivNs: ns} }
	traced := func(ns ...int64) *probe {
		l := newSpanLog(len(ns))
		for _, v := range ns {
			l.spans = append(l.spans, span{Name: spanInterval, End: v}, span{Name: "gpd.observe", End: 1})
		}
		return &probe{log: l}
	}
	// Pairwise ratios 1.1, 1.2, 1.0, 1.1, 1.1: the cheap and costly
	// intervals would skew a ratio of sums or of separate medians.
	base := []*probe{untraced(100, 1000, 10), untraced(200, 50)}
	tr := []*probe{traced(110, 1200, 10), traced(220, 55, 999)}
	if got := overheadFrac(base, tr); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("overheadFrac = %v, want 0.1", got)
	}
	if got := overheadFrac(nil, nil); got != 0 {
		t.Errorf("overheadFrac of nothing = %v, want 0", got)
	}
}
