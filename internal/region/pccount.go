package region

import (
	"math/bits"

	"regionmon/internal/hpm"
)

// pcCounter counts one interval's sample PCs in a single pass over the
// overflow buffer, so the batched distribution path stabs the epoch index
// once per distinct PC instead of once per sample. A buffer from loopy code
// is overwhelmingly made of repeated PCs (2032 samples over a few hot loop
// bodies hold a few hundred distinct ones), and distribution needs only
// the (PC, count) multiset, not any order over it.
//
// The table is open addressing with linear probing over a power-of-two
// slot array kept at least twice the batch, indexed by Fibonacci hashing
// (the top bits of pc·2^64/φ), so probe runs stay short even on PCs that
// differ only in a few low bits. A slot is empty exactly when its count
// is 0; touched records each occupied slot once, in first-seen order, and
// take empties the slot it reads, so the table is clean again once the
// caller has taken every touched slot.
type pcCounter struct {
	slots []pcSlot
	//lint:bounded -- reused via [:0]; capacity is the largest batch seen
	touched []int32
}

// pcSlot is one counter entry; count 0 marks it empty.
type pcSlot struct {
	pc    uint64
	count int
}

// fibMul is 2^64/φ, the multiplier of Fibonacci hashing.
const fibMul = 0x9e3779b97f4a7c15

// newPCCounter returns a counter sized for batches of up to batch samples;
// a larger batch grows it on first sight.
func newPCCounter(batch int) pcCounter {
	var c pcCounter
	c.grow(batch)
	return c
}

// count tallies every sample's PC. The table must be empty: every slot
// touched by the previous batch must have been taken.
func (c *pcCounter) count(samples []hpm.Sample) {
	if len(samples) > cap(c.touched) {
		c.grow(len(samples))
	}
	slots := c.slots
	mask := uint64(len(slots) - 1)
	shift := uint(bits.LeadingZeros64(mask)) // keeps the top log2(len) bits
	touched := c.touched[:0]
	for i := range samples {
		pc := uint64(samples[i].PC)
		h := (pc * fibMul) >> shift
		for {
			s := &slots[h]
			if s.count == 0 {
				s.pc, s.count = pc, 1
				touched = append(touched, int32(h))
				break
			}
			if s.pc == pc {
				s.count++
				break
			}
			h = (h + 1) & mask
		}
	}
	c.touched = touched
}

// take returns the PC and count held by slot i and empties the slot.
func (c *pcCounter) take(i int32) (pc uint64, n int) {
	s := &c.slots[i]
	pc, n = s.pc, s.count
	s.count = 0
	return pc, n
}

// grow allocates an empty table of at least 2·batch slots and a touched
// list of batch entries. After construction it runs only for a batch
// larger than every previous one, at most a handful of times per process
// and never in steady state; the table is empty whenever count is
// entered, so nothing is rehashed.
//
//lint:allow hotpath -- scratch growth is amortized-cold (fires only when the buffer size exceeds all previous intervals')
func (c *pcCounter) grow(batch int) {
	batch = max(batch, 1)
	c.slots = make([]pcSlot, 1<<bits.Len(uint(2*batch-1)))
	c.touched = make([]int32, 0, batch)
}
