package changepoint

import (
	"testing"
)

// metricStream produces a deterministic per-interval metric with a level
// shift at the given index.
func metricStream(n, shiftAt int, before, after float64) []float64 {
	g := noise{rng: 0xfeed}
	out := make([]float64, n)
	for i := range out {
		base := before
		if i >= shiftAt {
			base = after
		}
		out[i] = g.value(base, base*0.02)
	}
	return out
}

func TestDetectorFlagsShift(t *testing.T) {
	d := MustNew(DefaultConfig())
	stream := metricStream(400, 200, 1.2, 1.8)
	changedAt := -1
	changes := 0
	for i, x := range stream {
		v := d.Observe(x)
		if v.Changed {
			changes++
			if changedAt < 0 {
				changedAt = i
			}
			if v.ChangeAt < 190 || v.ChangeAt > 210 {
				t.Errorf("interval %d: change located at %d; want near 200", i, v.ChangeAt)
			}
			if v.PValue > d.cfg.Engine.Alpha {
				t.Errorf("confirmed change with p = %v above alpha", v.PValue)
			}
		}
	}
	if changes == 0 {
		t.Fatal("50% metric shift never flagged")
	}
	if changes > 2 {
		t.Errorf("one shift confirmed %d times; want 1 (2 tolerated for boundary jitter)", changes)
	}
	if changedAt < 200 {
		t.Errorf("change flagged at interval %d, before it happened", changedAt)
	}
	if d.Changes() != changes || d.LastChange() < 0 {
		t.Errorf("counters: Changes = %d (saw %d), LastChange = %d", d.Changes(), changes, d.LastChange())
	}
}

func TestDetectorQuietOnSteadyStream(t *testing.T) {
	d := MustNew(DefaultConfig())
	stream := metricStream(600, 600, 1.5, 1.5)
	for i, x := range stream {
		if v := d.Observe(x); v.Changed {
			t.Fatalf("steady stream flagged a change at interval %d: %+v", i, v)
		}
	}
	if d.Changes() != 0 || d.LastChange() != -1 {
		t.Errorf("counters after steady stream: %d changes, last %d", d.Changes(), d.LastChange())
	}
}

func TestDetectorEvaluationCadence(t *testing.T) {
	cfg := DefaultConfig()
	d := MustNew(cfg)
	stream := metricStream(3*cfg.Window, 3*cfg.Window, 2, 2)
	evals := 0
	for i, x := range stream {
		v := d.Observe(x)
		if v.Evaluated {
			evals++
			if i+1 < cfg.Window {
				t.Fatalf("evaluated at interval %d, before the window filled", i)
			}
			if (i+1)%cfg.EvalEvery != 0 {
				t.Fatalf("evaluated at interval %d, off the %d-stride", i, cfg.EvalEvery)
			}
		}
	}
	want := 0
	for k := cfg.EvalEvery; k <= 3*cfg.Window; k += cfg.EvalEvery {
		if k >= cfg.Window {
			want++
		}
	}
	if evals != want {
		t.Errorf("evaluations = %d; want %d", evals, want)
	}
}

// TestDetectorObserveAllocs gates the detector's own hot path: after the
// window has filled, observations — including the ones that run the
// engine — must not allocate.
func TestDetectorObserveAllocs(t *testing.T) {
	d := MustNew(DefaultConfig())
	stream := metricStream(1000, 500, 1.0, 1.6)
	for _, x := range stream[:200] {
		d.Observe(x)
	}
	i := 200
	avg := testing.AllocsPerRun(400, func() {
		d.Observe(stream[i%len(stream)])
		i++
	})
	if avg != 0 {
		t.Errorf("Observe allocates %.2f allocs/op steady-state; want 0", avg)
	}
}

// sinkVerdict keeps BenchmarkDetectorObserve's Observe calls live.
var sinkVerdict Verdict

// BenchmarkDetectorObserve: per-interval cost of the online detector on
// defaults over a CPI-like stream (2% noise) whose level steps every 600
// intervals, so most evaluations are non-significant and a few confirm a
// change.
func BenchmarkDetectorObserve(b *testing.B) {
	g := noise{rng: 0xc0ffee}
	levels := []float64{1.2, 1.5, 1.1, 1.8}
	stream := make([]float64, 4800)
	for i := range stream {
		base := levels[i/600%len(levels)]
		stream[i] = g.value(base, base*0.02)
	}
	d := MustNew(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkVerdict = d.Observe(stream[i%len(stream)])
	}
}
