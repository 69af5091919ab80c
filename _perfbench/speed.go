package main

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
	"slices"
)

// The host this benchmark was built on changes speed by itself. Over
// tens of minutes the same sweep took from 1.0 to 2.1 times its lowest
// processor time, with no steal reported, while a fixed kernel of
// standard-library work (which no change to the repository can alter)
// slowed by 1.5 to 1.6 times; fleet-soak moved by 1.6 times. The gated
// timings are therefore scaled by refNominalMs over the kernel's median
// time, sampled between the measured pieces of work through the run:
// they read as processor time on a machine where one kernel round takes
// refNominalMs. That takes out most of a shift between runs made tens of
// minutes apart. Shorter swings within a run are not shared with the
// kernel (per-sweep correlation about 0.1) and are left to the medians.
// The raw times and the kernel samples go to the result file.
const (
	// refNominalMs is the scale's reference point, between the ≈4 ms
	// and ≈7 ms one kernel round took on the build machine.
	refNominalMs = 5.0
	// refRounds is how many kernel rounds make one sample.
	refRounds = 4
)

// refKernel is the reference work: a sort, map inserts and lookups, a
// SHA-256 and a flate compression over fixed pseudo-random data. Its
// buffers are allocated once, so a round allocates nothing, runs no
// collection and does not depend on the heap the benchmark or the
// program has built.
type refKernel struct {
	keys, work []int
	table      map[uint64]uint32
	buf        []byte
	out        bytes.Buffer
	zw         *flate.Writer
	sink       uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		keys:  make([]int, 1<<15),
		work:  make([]int, 1<<15),
		table: make(map[uint64]uint32, 1<<16),
		buf:   make([]byte, 1<<16),
	}
	r := rand.New(rand.NewPCG(7, 11))
	for i := range k.keys {
		k.keys[i] = int(r.Uint64() >> 1)
	}
	for i := range k.buf {
		k.buf[i] = byte(r.Uint64() & 0x0f)
	}
	k.out.Grow(2 * len(k.buf))
	k.zw, _ = flate.NewWriter(&k.out, flate.BestSpeed)
	k.round() // the first round sizes the map and the flate state
	return k
}

// round does one fixed round of work and returns a checksum of it.
func (k *refKernel) round() uint64 {
	copy(k.work, k.keys)
	slices.Sort(k.work)
	clear(k.table)
	for i, v := range k.work {
		k.table[uint64(v)&(1<<16-1)] += uint32(i)
	}
	var h uint64
	for _, v := range k.keys {
		h += uint64(k.table[uint64(v)&(1<<16-1)])
	}
	sum := sha256.Sum256(k.buf)
	h ^= binary.LittleEndian.Uint64(sum[:])
	k.out.Reset()
	k.zw.Reset(&k.out)
	k.zw.Write(k.buf)
	k.zw.Close()
	return h + uint64(k.out.Len())
}

// sample returns the processor time of one round in ms, averaged over
// refRounds rounds.
func (k *refKernel) sample() float64 {
	secs, _ := cpuTime(func() error {
		for range refRounds {
			k.sink ^= k.round()
		}
		return nil
	})
	return secs * 1e3 / refRounds
}

// speedScale returns the factor that puts times measured beside the
// kernel samples refs onto the nominal machine.
func speedScale(refs []float64) float64 {
	return refNominalMs / median(refs)
}
