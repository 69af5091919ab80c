package region

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"regionmon/internal/hpm"
	"regionmon/internal/isa"
)

// checkDistributeMatchesList feeds each PC buffer, as one interval, through
// an IndexEpoch monitor (the hashed per-distinct-PC path) and an IndexList
// monitor (one stab per sample) that start from the same regions, and
// fails unless every report and every re-snapshot agrees.
func checkDistributeMatchesList(t *testing.T, bufs [][]isa.Addr) {
	t.Helper()
	prog, l1, l2 := testProgram(t)
	monitor := func(kind IndexKind) *Monitor {
		m := newMonitor(t, prog, func(c *Config) {
			c.Index = kind
			c.PruneAfter = 3
		})
		// A non-loop span overlapping l1 and l2's exact span, so samples
		// land in two regions at once and formation meets a taken span.
		for _, s := range [][2]isa.Addr{{l1.Start - 16, l1.Start + 32}, {l2.Start, l2.End}} {
			if _, err := m.AddRegion(s[0], s[1]); err != nil {
				t.Fatalf("AddRegion: %v", err)
			}
		}
		return m
	}
	epoch, list := monitor(IndexEpoch), monitor(IndexList)
	for i, pcs := range bufs {
		ov := &hpm.Overflow{Seq: i, Samples: make([]hpm.Sample, len(pcs))}
		for j, pc := range pcs {
			ov.Samples[j] = hpm.Sample{PC: pc, Cycle: uint64(j), Instrs: 10}
		}
		got, want := epoch.ProcessOverflow(ov), list.ProcessOverflow(ov)
		if !reportsEqual(t, got, want) {
			t.Fatalf("interval %d (%d samples): epoch and list reports differ:\nepoch %+v\nlist  %+v", i, len(pcs), got, want)
		}
		if !bytes.Equal(epoch.Snapshot(), list.Snapshot()) {
			t.Fatalf("interval %d (%d samples): epoch and list snapshots differ", i, len(pcs))
		}
	}
}

// loopyPCs returns n samples over a few hot PCs near the test program's
// text (0x10000), mostly aligned, with idle samples mixed in.
func loopyPCs(rng *rand.Rand, n int) []isa.Addr {
	hot := make([]isa.Addr, 1+rng.IntN(48))
	for i := range hot {
		hot[i] = 0x10000 - 32 + isa.Addr(rng.IntN(160))*isa.InstrBytes
		if rng.IntN(16) == 0 {
			hot[i] += isa.Addr(1 + rng.IntN(3)) // misaligned
		}
	}
	pcs := make([]isa.Addr, n)
	for i := range pcs {
		if rng.IntN(32) == 0 {
			continue // idle
		}
		pcs[i] = hot[rng.IntN(len(hot))]
	}
	return pcs
}

// distinctPCs returns n distinct PCs stride bytes apart from the test
// program's text.
func distinctPCs(n int, stride isa.Addr) []isa.Addr {
	pcs := make([]isa.Addr, n)
	for i := range pcs {
		pcs[i] = 0x10000 + isa.Addr(i)*stride
	}
	return pcs
}

// TestDistributeMatchesList runs hand-picked adversarial buffers — empty,
// idle PCs around a stray one, extreme PCs, more distinct PCs than the
// default table has slots — then random loopy buffers, some longer than
// the default buffer, through checkDistributeMatchesList.
func TestDistributeMatchesList(t *testing.T) {
	bufs := [][]isa.Addr{
		{},
		{42},
		{7, 7, 7, 7},
		{0, 0, 5, 0},
		{^isa.Addr(0), 0, ^isa.Addr(0)},
		{1 << 40, 1, 1 << 40, 2, 1},
		distinctPCs(hpm.DefaultBufferSize, 4),
		distinctPCs(4*hpm.DefaultBufferSize, 2),
	}
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.IntN(3000)
		if trial%2 == 0 {
			bufs = append(bufs, loopyPCs(rng, n))
			continue
		}
		// Far from the program, varying the shared high bits.
		base := rng.Uint64() >> (rng.UintN(40) + 8)
		pcs := make([]isa.Addr, n)
		for i := range pcs {
			pcs[i] = isa.Addr(base + rng.Uint64N(1+uint64(rng.IntN(512)))*4)
		}
		bufs = append(bufs, pcs)
	}
	checkDistributeMatchesList(t, bufs)
}

// maxFuzzIntervals bounds one fuzz input's interval count.
const maxFuzzIntervals = 16

// decodeBuffers turns fuzz bytes into PC buffers. Each buffer starts with
// an op byte, then:
//
//	op%4 == 0: a count byte n and n PC codes (see fuzzPC);
//	op%4 == 1: a byte choosing a stride of 1-8 bytes and a length of 1, 2
//	           or 4 times hpm.DefaultBufferSize, then that many distinct
//	           PCs from the program's start (4 times fills the default
//	           table twice over, so it must grow);
//	op%4 == 2: a seed byte; a loopy buffer longer than
//	           hpm.DefaultBufferSize, so the counter must grow;
//	op%4 == 3: a count byte n and a seed byte; a loopy buffer of 8n PCs.
//
// Missing bytes read as 0.
func decodeBuffers(data []byte) [][]isa.Addr {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var bufs [][]isa.Addr
	for len(data) > 0 && len(bufs) < maxFuzzIntervals {
		switch op := next(); op % 4 {
		case 0:
			pcs := make([]isa.Addr, next())
			for i := range pcs {
				pcs[i] = fuzzPC(next())
			}
			bufs = append(bufs, pcs)
		case 1:
			b := next()
			bufs = append(bufs, distinctPCs(hpm.DefaultBufferSize<<(b/8%3), isa.Addr(1+b%8)))
		case 2:
			rng := rand.New(rand.NewPCG(uint64(next()), 2))
			bufs = append(bufs, loopyPCs(rng, hpm.DefaultBufferSize+1+rng.IntN(2*hpm.DefaultBufferSize)))
		case 3:
			n := 8 * int(next())
			rng := rand.New(rand.NewPCG(uint64(next()), 3))
			bufs = append(bufs, loopyPCs(rng, n))
		}
	}
	return bufs
}

// fuzzPC decodes one PC code: 0 is idle, 255 is ^0, 254 is a tiny PC
// below the program; any other code is a PC on a 4-byte grid from 32
// bytes before the test program's text to past its end, shifted off the
// grid by 2 when odd.
func fuzzPC(b byte) isa.Addr {
	switch b {
	case 0:
		return 0
	case 255:
		return ^isa.Addr(0)
	case 254:
		return 5
	}
	return 0x10000 - 32 + isa.Addr(b>>1)*isa.InstrBytes + isa.Addr(b&1)*2
}

// FuzzDistributeMatchesList checks the epoch path's hashed PC counter
// against the per-sample list path on arbitrary buffers.
func FuzzDistributeMatchesList(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})                        // one empty buffer
	f.Add([]byte{0, 4, 0, 0, 254, 0})          // {0, 0, 5, 0}
	f.Add([]byte{0, 3, 255, 0, 255})           // {^0, 0, ^0}
	f.Add([]byte{1, 3, 1, 8, 1, 23})           // 2032, 4064, 8128 distinct PCs
	f.Add([]byte{3, 200, 9, 2, 17, 3, 40, 10}) // loopy, grown, loopy
	loopBody := []byte{0, 96}
	for i := 0; i < 96; i++ {
		loopBody = append(loopBody, byte(2*(72+i%16)))
	}
	f.Add(append(loopBody, loopBody...)) // forms a region around l1
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDistributeMatchesList(t, decodeBuffers(data))
	})
}
