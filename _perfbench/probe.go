package main

import (
	"sync/atomic"

	"regionmon/internal/changepoint"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
	"regionmon/internal/vhash"
)

// stampRing is the number of per-stream timestamp slots, indexed by
// interval seq. It must exceed the intervals one stream can have in
// flight (a shard ring holds 64, plus one push batch of 16).
const stampRing = 256

// probe is the benchmark's view into one stream (or one sweep cell). In
// traced runs the producer stamps each interval before pushing it, and
// the stream's first detector call, running on the stream's shard worker,
// reads the stamps to time the interval's queue wait. The ring push/pop
// orders the stamp before the read, so it needs no lock.
// Everything else in a probe is written by the worker alone and read by
// the benchmark only after a Drain, StreamInfo or Close has synchronized
// with that worker.
type probe struct {
	stream int
	// issued is when each interval's push started (traced runs only).
	issued [stampRing]int64
	// pushed is when each interval's push returned (traced runs only);
	// the worker may start the interval before the producer writes it.
	pushed [stampRing]atomic.Int64

	// Counting and traced runs: layer tallies (nil when traced only) and
	// the observer's own digest of the verdict stream.
	counts  *counts
	dig     *vhash.Digest
	hashErr error

	// Untraced counting runs: when the interval in flight started (first
	// detector call), and each interval's time up to observer return, to
	// compare with the traced pass's interval spans.
	start int64
	ivNs  []int64

	// Traced runs only.
	log    *spanLog
	waits  []int64 // push return -> first detector call, ns
	parent int32   // enclosing span for interval spans (-1 for none)
	cur    int32   // open interval span
}

// newProbe makes stream's probe; ivCap is the number of intervals it
// expects to time.
func newProbe(stream, ivCap int, counting, traced bool, spanCap int) *probe {
	p := &probe{stream: stream, parent: -1, cur: -1}
	if counting {
		p.counts = &counts{}
		p.dig = vhash.New()
		p.ivNs = make([]int64, 0, ivCap)
	}
	if traced {
		p.log = newSpanLog(spanCap)
		p.waits = make([]int64, 0, ivCap)
		p.dig = vhash.New()
	}
	return p
}

func (p *probe) ivID(seq int) int64 { return int64(p.stream)<<32 | int64(uint32(seq)) }

// openInterval starts seq's enclosing span and records how long the
// interval waited between its push returning and this first detector
// call. A push that had not yet returned means no wait at all; a stale
// slot (the stamp still belongs to an older interval) reads as such.
func (p *probe) openInterval(seq int) {
	p.cur = p.log.begin(spanInterval, p.parent, p.ivID(seq))
	start := p.log.spans[p.cur].Start
	slot := seq % stampRing
	if pushed := p.pushed[slot].Load(); pushed >= p.issued[slot] && start > pushed {
		p.waits = append(p.waits, start-pushed)
	} else {
		p.waits = append(p.waits, 0)
	}
}

// observe is the stream's pipeline observer: when enabled, it counts
// layer outcomes and digests the report, the digest under its own span
// when traced.
func (p *probe) observe(rep *pipeline.IntervalReport) {
	if p.dig == nil {
		return
	}
	if p.log == nil {
		p.counts.add(rep)
		p.digest(rep)
		if p.start != 0 {
			p.ivNs = append(p.ivNs, now()-p.start)
		}
		return
	}
	id := p.ivID(rep.Seq)
	obs := p.log.begin(spanObserver, p.cur, id)
	if p.counts != nil {
		p.counts.add(rep)
	}
	v := p.log.begin(spanVhash, obs, id)
	p.digest(rep)
	p.log.end(v)
	p.log.end(obs)
	p.log.end(p.cur)
	p.cur = -1
}

func (p *probe) digest(rep *pipeline.IntervalReport) {
	if err := p.dig.Report(rep); err != nil && p.hashErr == nil {
		p.hashErr = err
	}
}

// counts tallies layer outcomes from verdict payloads. All of them are
// functions of the input stream alone, so they repeat exactly across
// runs, shard counts and traced/untraced passes.
type counts struct {
	Intervals  int
	Formations int // intervals with FormationTriggered
	Regions    int // monitored regions after the last interval
	LPDChanges int // per-region stable-boundary crossings
	CPEvals    int // change-point engine runs
	CPChanges  int // change points confirmed
	UCR        []float64
}

func (c *counts) add(rep *pipeline.IntervalReport) {
	c.Intervals++
	for i := range rep.Verdicts {
		switch pl := rep.Verdicts[i].Payload.(type) {
		case *region.Report:
			if pl.FormationTriggered {
				c.Formations++
			}
			c.Regions = len(pl.Verdicts)
			for j := range pl.Verdicts {
				if pl.Verdicts[j].Verdict.PhaseChange {
					c.LPDChanges++
				}
			}
			c.UCR = append(c.UCR, pl.UCRFraction)
		case *changepoint.Verdict:
			if pl.Evaluated {
				c.CPEvals++
			}
			if pl.Changed {
				c.CPChanges++
			}
		}
	}
}

// merge folds o into c (regions add up across streams).
func (c *counts) merge(o *counts) {
	c.Intervals += o.Intervals
	c.Formations += o.Formations
	c.Regions += o.Regions
	c.LPDChanges += o.LPDChanges
	c.CPEvals += o.CPEvals
	c.CPChanges += o.CPChanges
	c.UCR = append(c.UCR, o.UCR...)
}

// equal reports whether two tallies agree exactly.
func (c *counts) equal(o *counts) bool {
	if c.Intervals != o.Intervals || c.Formations != o.Formations || c.Regions != o.Regions ||
		c.LPDChanges != o.LPDChanges || c.CPEvals != o.CPEvals || c.CPChanges != o.CPChanges ||
		len(c.UCR) != len(o.UCR) {
		return false
	}
	for i := range c.UCR {
		if c.UCR[i] != o.UCR[i] {
			return false
		}
	}
	return true
}
