package main

import "testing"

// The reference kernel must do the same work every round, and allocate
// nothing, so that neither a collection nor the heap around it can move
// its timing.
func TestRefKernelFixedWorkNoAllocs(t *testing.T) {
	k := newRefKernel()
	first := k.round()
	if again := newRefKernel().round(); again != first {
		t.Fatalf("a fresh kernel's round = %#x, want %#x", again, first)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if got := k.round(); got != first {
			t.Fatalf("round = %#x, want %#x every time", got, first)
		}
	}); allocs != 0 {
		t.Errorf("round allocates %v times, want 0", allocs)
	}
}

func TestSpeedScale(t *testing.T) {
	// The kernel took twice its nominal time: the machine ran at half
	// speed, so times measured beside it are halved.
	if got := speedScale([]float64{9, 10, 11}); got != refNominalMs/10 {
		t.Errorf("speedScale = %v, want %v", got, refNominalMs/10)
	}
}
