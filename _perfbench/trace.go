package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"regionmon/internal/hpm"
	"regionmon/internal/pipeline"
	"regionmon/internal/snap"
)

// clockBase anchors the benchmark clock; now reads the monotonic clock
// as nanoseconds since it.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	Name string
	// Parent indexes the enclosing span in the same log; -1 for none.
	Parent int32
	// Interval identifies the sampling interval the span worked on
	// (stream<<32 | seq), or -1.
	Interval   int64
	Start, End int64 // benchmark clock, ns
}

// spanLog is one goroutine's in-memory span record. Each log has a
// single writer (a shard worker for its streams' logs, the producer for
// its own); the owner reads it only after that writer has finished.
type spanLog struct {
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, parent int32, interval int64) int32 {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Interval: interval, Start: now()})
	return int32(len(l.spans) - 1)
}

// end closes span i.
func (l *spanLog) end(i int32) { l.spans[i].End = now() }

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover (overlapping children counted once,
// children clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i := range spans {
		s := spans[i]
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		ivs = ivs[:0]
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		for n, v := range ivs {
			switch {
			case n == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo > curHi:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			case v.hi > curHi:
				curHi = v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// layerTimes sums span durations and self times by span name over logs.
type layerTimes struct {
	total, self map[string]int64
	count       map[string]int
}

func sumLayers(logs []*spanLog) layerTimes {
	lt := layerTimes{total: map[string]int64{}, self: map[string]int64{}, count: map[string]int{}}
	for _, l := range logs {
		if l == nil {
			continue
		}
		self := selfTimes(l.spans)
		for i, s := range l.spans {
			lt.total[s.Name] += s.End - s.Start
			lt.self[s.Name] += self[i]
			lt.count[s.Name]++
		}
	}
	return lt
}

// perCall returns the mean total time per span of the named layer, in ns.
func (lt layerTimes) perCall(name string) float64 {
	if lt.count[name] == 0 {
		return 0
	}
	return float64(lt.total[name]) / float64(lt.count[name])
}

// writeSpans writes every span of logs to path as CSV, one span a line:
// log,index,name,parent,interval,start_ns,end_ns.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "log,index,name,parent,interval,start_ns,end_ns")
	var buf []byte
	for li, l := range logs {
		if l == nil {
			continue
		}
		for i, s := range l.spans {
			buf = buf[:0]
			buf = strconv.AppendInt(buf, int64(li), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(i), 10)
			buf = append(buf, ',')
			buf = append(buf, s.Name...)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(s.Parent), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, s.Interval, 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, s.Start, 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, s.End, 10)
			buf = append(buf, '\n')
			w.Write(buf)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names of the layers the benchmark calls into.
const (
	spanInterval = "pipeline.interval" // first detector call .. observer return
	spanObserver = "observer"
	spanVhash    = "vhash.report"
	spanGen      = "soak.gen"
	spanPush     = "ingest.push"
	spanDrain    = "ingest.drain"
	spanSnapshot = "ingest.snapshot"
	spanSimRun   = "sim.run"
	spanBuild    = "workload.build"
	spanCell     = "experiments.cell"
	spanRecord   = "hpm.overflow"
)

// detectorSpan names a detector's span after its layer, keyed by the
// registered detector name.
var detectorSpan = map[string]string{
	pipeline.NameGPD:         "gpd.observe",
	pipeline.NameCPI:         "gpd.cpi",
	pipeline.NameRegions:     "region.observe",
	pipeline.NameBBV:         "altdetect.bbv",
	pipeline.NameWorkingSet:  "altdetect.ws",
	pipeline.NameChangePoint: "changepoint.observe",
}

// timedDetector wraps a registered detector, recording one span per
// ObserveInterval call into the stream probe's log. The first detector
// of a pipeline also opens the interval's enclosing span, which the
// probe's observer closes. A probe without a log times only the whole
// interval. Snapshot calls are forwarded untouched, so a timed pipeline
// checkpoints and restores exactly like the bare one.
type timedDetector struct {
	inner pipeline.PhaseDetector
	span  string
	probe *probe
	first bool
}

func (t *timedDetector) Name() string { return t.inner.Name() }

func (t *timedDetector) ObserveInterval(ov *hpm.Overflow) pipeline.Verdict {
	p := t.probe
	if p.log == nil {
		if t.first {
			p.start = now()
		}
		return t.inner.ObserveInterval(ov)
	}
	if t.first {
		p.openInterval(ov.Seq)
	}
	i := p.log.begin(t.span, p.cur, p.ivID(ov.Seq))
	v := t.inner.ObserveInterval(ov)
	p.log.end(i)
	return v
}

// AppendSnapshot forwards to the wrapped detector.
func (t *timedDetector) AppendSnapshot(e *snap.Encoder) error {
	s, ok := t.inner.(pipeline.Snapshotter)
	if !ok {
		return fmt.Errorf("detector %q (%T) does not support snapshotting", t.inner.Name(), t.inner)
	}
	return s.AppendSnapshot(e)
}

// RestoreSnapshot forwards to the wrapped detector.
func (t *timedDetector) RestoreSnapshot(d *snap.Decoder) error {
	s, ok := t.inner.(pipeline.Snapshotter)
	if !ok {
		return fmt.Errorf("detector %q (%T) does not support snapshotting", t.inner.Name(), t.inner)
	}
	return s.RestoreSnapshot(d)
}

// instrument returns a fresh pipeline over p's detectors, each wrapped
// in a timedDetector recording into pr. p itself must not be used
// afterwards: the detectors now belong to the returned pipeline.
func instrument(p *pipeline.Pipeline, pr *probe) (*pipeline.Pipeline, error) {
	out := pipeline.New()
	for i, d := range p.Detectors() {
		name, ok := detectorSpan[d.Name()]
		if !ok {
			name = "detector." + d.Name()
		}
		if err := out.Register(&timedDetector{inner: d, span: name, probe: pr, first: i == 0}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// intervalTimes returns the probe's interval times in processing order,
// first detector call to observer return: the interval spans when the
// probe traced, the decorator's plain timings otherwise.
func (p *probe) intervalTimes() []int64 {
	if p.log == nil {
		return p.ivNs
	}
	var out []int64
	for _, sp := range p.log.spans {
		if sp.Name == spanInterval {
			out = append(out, sp.End-sp.Start)
		}
	}
	return out
}

// overheadFrac returns the tracing cost on the data path: the median,
// over intervals, of an interval's traced time over its untraced time,
// minus 1. base and traced probe the same streams over the same input.
// Pairing each interval with itself takes out the spread between cheap
// and costly intervals, and the median the preemptions.
func overheadFrac(base, traced []*probe) float64 {
	var ratios []float64
	for i, p := range traced {
		tr, bs := p.intervalTimes(), base[i].intervalTimes()
		for j := range min(len(tr), len(bs)) {
			if bs[j] > 0 {
				ratios = append(ratios, float64(tr[j])/float64(bs[j]))
			}
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return median(ratios) - 1
}
