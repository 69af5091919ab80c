package snap_test

import (
	"bytes"
	"testing"

	"regionmon/internal/altdetect"
	"regionmon/internal/changepoint"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/isa"
	"regionmon/internal/lpd"
	"regionmon/internal/region"
)

// standalone is the checkpoint surface every detector-level component
// exposes.
type standalone interface {
	Snapshot() []byte
	Restore(data []byte) error
}

// restoreProgram is one loop between straight-line code: enough for the
// region monitor to form a region and for the block detectors to see two
// working sets.
func restoreProgram(t *testing.T) (*isa.Program, isa.LoopSpan) {
	t.Helper()
	b := isa.NewBuilder(0x10000)
	p := b.Proc("main")
	p.Code(32, isa.KindALU)
	l := p.Loop(16, []isa.Kind{isa.KindLoad, isa.KindALU}, nil)
	p.Code(32, isa.KindALU)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return prog, l
}

// restoreOverflow is interval i of a stream that alternates between the
// loop and the straight-line code after it, in a shifting mix.
func restoreOverflow(i int, l isa.LoopSpan) *hpm.Overflow {
	ov := &hpm.Overflow{Seq: i, Samples: make([]hpm.Sample, 96)}
	for j := range ov.Samples {
		pc := l.Start + isa.Addr((i+j)%l.NumInstrs())*isa.InstrBytes
		if (i/3)%2 == 1 && j%3 == 0 {
			pc = l.End + isa.Addr(j%8)*isa.InstrBytes
		}
		ov.Samples[j] = hpm.Sample{PC: pc, Cycle: uint64(j), Instrs: 10}
	}
	return ov
}

// restoreValue is interval i of a scalar stream with a level shift.
func restoreValue(i int) float64 {
	v := float64((i*7)%5) / 10
	if i >= 12 {
		v += 3
	}
	return v
}

// TestStandaloneRestoreAllOrNothing: a valid snapshot followed by one
// trailing byte decodes cleanly and only then fails the end-of-input
// check. Each standalone Restore must return that error with the target
// exactly as it was before the call.
func TestStandaloneRestoreAllOrNothing(t *testing.T) {
	prog, loop := restoreProgram(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		// build returns a fresh component fed n intervals of its stream.
		build func(n int) standalone
	}{
		{"region.Monitor", func(n int) standalone {
			m, err := region.NewMonitor(prog, region.DefaultConfig())
			must(err)
			for i := 0; i < n; i++ {
				m.ProcessOverflow(restoreOverflow(i, loop))
			}
			return m
		}},
		{"lpd.Detector", func(n int) standalone {
			d, err := lpd.New(8, lpd.DefaultConfig())
			must(err)
			for i := 0; i < n; i++ {
				curr := make([]int64, 8)
				for j := range curr {
					curr[j] = int64(10 + (i*j)%7)
				}
				d.Observe(curr)
			}
			return d
		}},
		{"gpd.Detector", func(n int) standalone {
			d, err := gpd.New(gpd.DefaultConfig())
			must(err)
			for i := 0; i < n; i++ {
				d.Observe(restoreValue(i))
			}
			return d
		}},
		{"gpd.PerfTracker", func(n int) standalone {
			p, err := gpd.NewPerfTracker(gpd.DefaultPerfConfig())
			must(err)
			for i := 0; i < n; i++ {
				p.Observe(restoreValue(i))
			}
			return p
		}},
		{"altdetect.BBV", func(n int) standalone {
			d, err := altdetect.NewBBV(prog, 0.8)
			must(err)
			for i := 0; i < n; i++ {
				d.Observe(restoreOverflow(i, loop))
			}
			return d
		}},
		{"altdetect.WorkingSet", func(n int) standalone {
			d, err := altdetect.NewWorkingSet(prog, 0.5)
			must(err)
			for i := 0; i < n; i++ {
				d.Observe(restoreOverflow(i, loop))
			}
			return d
		}},
		{"changepoint.Detector", func(n int) standalone {
			d, err := changepoint.New(changepoint.DefaultConfig())
			must(err)
			for i := 0; i < n; i++ {
				d.Observe(restoreValue(i))
			}
			return d
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			target, source := c.build(4), c.build(20)
			before, valid := target.Snapshot(), source.Snapshot()
			if bytes.Equal(before, valid) {
				t.Fatal("source and target states are equal; the test would show nothing")
			}
			if err := target.Restore(append(valid, 0)); err == nil {
				t.Fatal("Restore accepted a snapshot with a trailing byte")
			}
			if !bytes.Equal(target.Snapshot(), before) {
				t.Fatal("failed Restore replaced the target's state")
			}
			if err := target.Restore(valid); err != nil {
				t.Fatalf("Restore of the valid snapshot: %v", err)
			}
			if !bytes.Equal(target.Snapshot(), valid) {
				t.Fatal("restored target re-snapshots to different bytes")
			}
		})
	}
}
