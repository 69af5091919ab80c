package changepoint

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// referenceDetect is Engine.Detect with every permutation test run to
// completion: the engine without sequential stopping. It shares
// bestSplit, insertSorted and the engine's PRNG, so the early-stopping
// engine must match it exactly — change points and final PRNG state.
func referenceDetect(e *Engine, xs []float64, seed uint64) []ChangePoint {
	e.rng = seed
	var out []ChangePoint
	stack := []span{{0, len(xs)}}
	for len(stack) > 0 {
		sp := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if sp.end-sp.start < 2*e.cfg.MinSegment {
			continue
		}
		seg := xs[sp.start:sp.end]
		tau, stat := bestSplit(seg, e.cfg.MinSegment)
		if tau < 0 || math.IsNaN(stat) || math.IsInf(stat, 0) {
			continue
		}
		buf := slices.Clone(seg)
		exceed := 0
		for r := 0; r < e.cfg.Permutations; r++ {
			for i := len(buf) - 1; i > 0; i-- {
				j := int(e.next() % uint64(i+1))
				buf[i], buf[j] = buf[j], buf[i]
			}
			if _, q := bestSplit(buf, e.cfg.MinSegment); q >= stat {
				exceed++
			}
		}
		p := float64(1+exceed) / float64(1+e.cfg.Permutations)
		if p > e.cfg.Alpha {
			continue
		}
		out = insertSorted(out, 0, ChangePoint{Index: sp.start + tau, Stat: stat, PValue: p})
		stack = append(stack, span{sp.start, sp.start + tau}, span{sp.start + tau, sp.end})
	}
	return out
}

// referenceConfigs are the engine configurations the early-stopping
// engine is checked under: the online detector's, the benchwatch gate's,
// alpha 1 (never stops early) and a single permutation.
var referenceConfigs = []EngineConfig{
	DefaultEngineConfig(),
	{Permutations: 199, Alpha: 0.05, MinSegment: 3},
	{Permutations: 19, Alpha: 1, MinSegment: 4},
	{Permutations: 1, Alpha: 0.5, MinSegment: 4},
}

// checkAgainstReference runs xs through a fresh early-stopping engine and
// a fresh reference engine and reports any difference.
func checkAgainstReference(t *testing.T, cfg EngineConfig, xs []float64, seed uint64) {
	t.Helper()
	maxN := max(len(xs), 2*cfg.MinSegment)
	eng, err := NewEngine(maxN, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(maxN, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Detect(xs, seed, nil)
	want := referenceDetect(ref, xs, seed)
	if !slices.Equal(got, want) {
		t.Errorf("cfg %+v seed %d len %d: change points %+v, reference %+v", cfg, seed, len(xs), got, want)
	}
	if eng.rng != ref.rng {
		t.Errorf("cfg %+v seed %d len %d: final PRNG state %#x, reference %#x", cfg, seed, len(xs), eng.rng, ref.rng)
	}
}

// TestDetectMatchesReference: stopping the permutation test at the first
// decisive exceedance, and skipping the PRNG past the rounds not run,
// changes neither the change points nor the stream later segments draw.
func TestDetectMatchesReference(t *testing.T) {
	for _, cfg := range referenceConfigs {
		for seed := uint64(1); seed <= 4; seed++ {
			constant := make([]float64, 48)
			for i := range constant {
				constant[i] = 3
			}
			inputs := map[string][]float64{
				"homogeneous": series(seed, [2]float64{64, 100}),
				"single-step": series(seed, [2]float64{32, 100}, [2]float64{32, 70}),
				"multi-step":  series(seed, [2]float64{24, 100}, [2]float64{24, 60}, [2]float64{24, 140}),
				"constant":    constant,
				"min-length":  series(seed, [2]float64{2 * float64(cfg.MinSegment), 100}),
			}
			for _, name := range []string{"homogeneous", "single-step", "multi-step", "constant", "min-length"} {
				t.Run(name, func(t *testing.T) { checkAgainstReference(t, cfg, inputs[name], seed) })
			}
		}
	}
}

// fuzzSeries decodes fuzz input into an engine configuration and a
// series: the first byte picks one of referenceConfigs and the seed,
// every later byte (up to 64) is one observation. Most bytes are small
// levels, so series have steps and ties; the top few are NaN, infinities
// and extreme magnitudes.
func fuzzSeries(data []byte) (EngineConfig, uint64, []float64) {
	if len(data) == 0 {
		return referenceConfigs[0], 0, nil
	}
	cfg := referenceConfigs[int(data[0])%len(referenceConfigs)]
	seed := uint64(data[0])
	data = data[1:min(len(data), 65)]
	xs := make([]float64, len(data))
	for i, b := range data {
		switch b {
		case 0xff:
			xs[i] = math.NaN()
		case 0xfe:
			xs[i] = math.Inf(1)
		case 0xfd:
			xs[i] = math.Inf(-1)
		case 0xfc:
			xs[i] = math.MaxFloat64
		case 0xfb:
			xs[i] = -math.MaxFloat64
		case 0xfa:
			xs[i] = math.SmallestNonzeroFloat64
		default:
			xs[i] = float64(b)
		}
	}
	return cfg, seed, xs
}

func FuzzDetectMatchesReference(f *testing.F) {
	steps := make([]byte, 1, 49)
	for i := range 48 {
		steps = append(steps, byte(10+40*(i/16)+i%3))
	}
	for cfg := range referenceConfigs {
		steps[0] = byte(cfg)
		f.Add(slices.Clone(steps))
	}
	f.Add([]byte{1, 5, 5, 5, 5, 5, 5, 0xff, 5, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{2, 0xfe, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xfc, 0xfb, 0xfa})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, seed, xs := fuzzSeries(data)
		checkAgainstReference(t, cfg, xs, seed)
	})
}

// FuzzDetectorRestore: Restore of arbitrary bytes either fails and
// leaves the detector as it was, or succeeds and re-snapshots to exactly
// those bytes; a restored detector then observes without panicking.
func FuzzDetectorRestore(f *testing.F) {
	stream := metricStream(160, 60, 1.0, 1.5)
	src := MustNew(DefaultConfig())
	for _, x := range stream[:70] {
		src.Observe(x)
	}
	before := src.Snapshot()
	for _, x := range stream[70:120] {
		src.Observe(x)
	}
	good := src.Snapshot()
	f.Add(good)
	f.Add(append(slices.Clone(good), 0))                                    // trailing byte
	f.Add(bytes.Replace(good, []byte("chgpt\x01"), []byte("chgpt\x00"), 1)) // version 0
	f.Fuzz(func(t *testing.T, data []byte) {
		d := MustNew(DefaultConfig())
		if err := d.Restore(before); err != nil {
			t.Fatal(err)
		}
		if err := d.Restore(data); err != nil {
			if !bytes.Equal(d.Snapshot(), before) {
				t.Fatalf("failed restore (%v) changed the detector", err)
			}
			return
		}
		if got := d.Snapshot(); !bytes.Equal(got, data) {
			t.Fatalf("restore accepted %d bytes but re-snapshots to %d different bytes", len(data), len(got))
		}
		// One full evaluation stride runs the engine over the restored
		// window once.
		for _, x := range stream[120:152] {
			d.Observe(x)
		}
	})
}
