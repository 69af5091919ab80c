package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"

	"regionmon/internal/hpm"
	"regionmon/internal/ingest"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
	"regionmon/internal/vhash"
)

// Fleet workload shape, sized for two CPUs.
const (
	fleetShards = 2
	// checkIntervals is the per-stream prefix checked in-band against
	// the per-item reference at the end of warm-up.
	checkIntervals = 256
	// warmIntervals is the per-stream warm-up before the measurement. The
	// region monitor's UCR history grows with every interval until it
	// holds DefaultUCRHistoryCap of them; until then each snapshot is
	// larger than the last, and a snapshot's cost would depend on how
	// far a run had got.
	warmIntervals = region.DefaultUCRHistoryCap
	// windowNs is the measurement window. Each window ends with a Drain,
	// so it counts only fully processed intervals.
	windowNs = 0.25e9
	// Between windows the fleet is snapshotted for snapshotGroupNs, at
	// least minGroupSnapshots times.
	snapshotGroupNs   = 50e6
	minGroupSnapshots = 2
)

// cursor yields one stream's intervals in order.
type cursor interface {
	// next fills ov with the stream's next interval.
	next(ov *hpm.Overflow)
}

// fleetWorkload describes one fleet workload: how each stream's detector
// stack is built and where its intervals come from. The producer pushes
// batch intervals to each stream in turn with PushBatchWait, a closed
// loop: it waits whenever the fleet is full.
type fleetWorkload struct {
	streams    int
	maxSamples int
	batch      int
	// traceIntervals is the per-stream interval count of each traced-run
	// pass (fixed, so counts repeat exactly).
	traceIntervals int
	// checkStreams are the streams the in-band check compares against
	// the per-item reference: enough to cover every distinct input.
	checkStreams []int
	stack        func(stream int) (*pipeline.Pipeline, error)
	cursor       func(stream int) cursor
	newOverflows func(n int) []*hpm.Overflow

	// Set-up side layers (recording); zero for synthetic workloads.
	setup setupStats
}

// setupStats describes the simulated recording a workload was built from.
type setupStats struct {
	log                *spanLog // traced set-up only
	overflows, samples int
	cycles             uint64
}

// sampleStreams is the fixed set of streams checked against the per-item
// reference over the whole run: first, last and two in between.
func sampleStreams(n int) []int {
	return []int{0, n / 3, 2 * n / 3, n - 1}
}

// fleetRun is one fleet with its producer state.
type fleetRun struct {
	w        *fleetWorkload
	f        *ingest.Fleet
	probes   []*probe
	curs     []cursor
	bufs     [][]*hpm.Overflow
	pushed   []int
	total    int
	plog     *spanLog // producer spans; nil untraced
	depthMax int
}

func newFleetRun(w *fleetWorkload, counting, traced bool, ivCap int) (*fleetRun, error) {
	r := &fleetRun{w: w, pushed: make([]int, w.streams)}
	spanCap := 0
	if traced {
		spanCap = w.traceIntervals * 10
		r.plog = newSpanLog(w.traceIntervals * w.streams * 3)
	}
	for s := 0; s < w.streams; s++ {
		r.probes = append(r.probes, newProbe(s, ivCap, counting, traced, spanCap))
		r.curs = append(r.curs, w.cursor(s))
		r.bufs = append(r.bufs, w.newOverflows(w.batch))
	}
	f, err := newFleet(w, r.probes)
	if err != nil {
		return nil, err
	}
	r.f = f
	return r, nil
}

// newFleet builds w's fleet, every stream's stack observed by its probe
// (and wrapped in timing decorators when the probe counts or traces). A
// nil probes slice builds bare stacks.
func newFleet(w *fleetWorkload, probes []*probe) (*ingest.Fleet, error) {
	return ingest.NewFleet(w.streams, ingest.Config{
		Shards:     fleetShards,
		MaxSamples: w.maxSamples,
		Build: func(stream int) (*pipeline.Pipeline, error) {
			p, err := w.stack(stream)
			if err != nil || probes == nil {
				return p, err
			}
			pr := probes[stream]
			if pr.counts != nil || pr.log != nil {
				if p, err = instrument(p, pr); err != nil {
					return nil, err
				}
			}
			p.AddObserver(pr.observe)
			return p, nil
		},
	})
}

// push hands one batch of a stream's intervals to the fleet.
func (r *fleetRun) push(s int, ovs []*hpm.Overflow) {
	var sp int32
	if r.plog != nil {
		sp = r.plog.begin(spanPush, -1, -1)
	}
	r.f.PushBatchWait(s, ovs)
	if r.plog != nil {
		r.plog.end(sp)
		t := r.plog.spans[sp].End
		for _, ov := range ovs {
			r.probes[s].pushed[ov.Seq%stampRing].Store(t)
		}
		if r.total%64 == 0 {
			for _, sh := range r.f.Stats().Shards {
				r.depthMax = max(r.depthMax, sh.QueueDepth)
			}
		}
	}
	r.pushed[s] += len(ovs)
	r.total += len(ovs)
}

// round pushes one batch to every stream.
func (r *fleetRun) round() {
	for s, cur := range r.curs {
		bb := r.bufs[s]
		for _, ov := range bb {
			if r.plog != nil {
				sp := r.plog.begin(spanGen, -1, -1)
				cur.next(ov)
				r.plog.end(sp)
			} else {
				cur.next(ov)
			}
		}
		if r.plog != nil {
			t := now()
			for _, ov := range bb {
				r.probes[s].issued[ov.Seq%stampRing] = t
			}
		}
		r.push(s, bb)
	}
}

func (r *fleetRun) drain() {
	if r.plog == nil {
		r.f.Drain()
		return
	}
	sp := r.plog.begin(spanDrain, -1, -1)
	r.f.Drain()
	r.plog.end(sp)
}

// snapshot takes a whole-fleet snapshot.
func (r *fleetRun) snapshot() ([]byte, error) {
	if r.plog == nil {
		return r.f.Snapshot()
	}
	sp := r.plog.begin(spanSnapshot, -1, -1)
	defer r.plog.end(sp)
	return r.f.Snapshot()
}

// fill pushes n more intervals to every stream (n a multiple of the
// batch), then drains.
func (r *fleetRun) fill(n int) {
	for i := 0; i < n; i += r.w.batch {
		r.round()
	}
	r.drain()
}

// measurement is what the untraced run's windows measured.
type measurement struct {
	cpuUs  []float64 // per window: processor time per interval, µs
	rates  []float64 // per window: intervals per wall-clock second
	snapMs []float64 // per snapshot group: processor time per snapshot, ms
	// snapshots is the number of snapshots taken.
	snapshots int
	refMs     []float64 // per window: a reference kernel sample, ms
}

// measure drives the fleet for at least the given time in Drain-ended
// windows. Between windows it folds the live heap into heap (after a
// full collection, which also keeps the previous window's garbage out of
// the snapshot timings), samples the reference kernel k and takes a
// group of fleet snapshots.
func (r *fleetRun) measure(seconds float64, heap *heapPeak, k *refKernel) (*measurement, error) {
	m := &measurement{}
	end := now() + int64(seconds*1e9)
	for len(m.cpuUs) == 0 || now() < end {
		n0 := r.total
		var wall int64
		secs, _ := cpuTime(func() error {
			t0 := now()
			for now()-t0 < windowNs {
				r.round()
			}
			r.drain()
			wall = now() - t0
			return nil
		})
		n := float64(r.total - n0)
		m.cpuUs = append(m.cpuUs, secs*1e6/n)
		m.rates = append(m.rates, n*1e9/float64(wall))
		heap.read()
		m.refMs = append(m.refMs, k.sample())
		ms, cnt, err := snapshotGroup(func() error { _, err := r.snapshot(); return err })
		if err != nil {
			return nil, err
		}
		m.snapMs = append(m.snapMs, ms)
		m.snapshots += cnt
	}
	return m, nil
}

// snapshotGroup takes back-to-back snapshots until snapshotGroupNs has
// passed, at least minGroupSnapshots of them, and returns their mean
// processor time in ms with their count. One snapshot's time swung by a
// quarter from one to the next; a group averages that out.
func snapshotGroup(snapshot func() error) (float64, int, error) {
	n := 0
	secs, err := cpuTime(func() error {
		for t := now(); n < minGroupSnapshots || now()-t < snapshotGroupNs; n++ {
			if err := snapshot(); err != nil {
				return err
			}
		}
		return nil
	})
	return secs * 1e3 / float64(n), n, err
}

// streamDigests reads every stream's digest in-band, failing any stream
// whose interval count is not what was pushed.
func (r *fleetRun) streamDigests(b *bench) []uint64 {
	out := make([]uint64, r.w.streams)
	for s := range out {
		b.attempted++
		info, err := r.f.StreamInfo(s)
		switch {
		case err != nil:
			b.fail("stream %d: %v", s, err)
		case info.Intervals != r.pushed[s]:
			b.fail("stream %d processed %d of %d pushed intervals", s, info.Intervals, r.pushed[s])
		}
		out[s] = info.Digest
	}
	return out
}

// checkDropped fails the run for every interval the fleet dropped.
func (r *fleetRun) checkDropped(b *bench) {
	st := r.f.Stats()
	if st.Dropped > 0 {
		b.failed += int64(st.Dropped)
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: fleet dropped %d intervals on the lossless path\n", st.Dropped)
	}
}

// waits gathers every stream's queue waits (µs).
func (r *fleetRun) waits() []float64 {
	var out []float64
	for _, p := range r.probes {
		out = append(out, nsToFloat(p.waits, 1e3)...)
	}
	return out
}

func (r *fleetRun) counts() *counts {
	c := &counts{}
	for _, p := range r.probes {
		c.merge(p.counts)
	}
	return c
}

// reference is one stream replayed unsharded, one ProcessOverflow per
// interval, on its own freshly built stack: the oracle the fleet's
// per-stream digests must match.
type reference struct {
	stream  int
	pipe    *pipeline.Pipeline
	dig     *vhash.Digest
	err     error
	cur     cursor
	ov      *hpm.Overflow
	n       int
	atCheck uint64 // digest after checkIntervals
}

func newReference(w *fleetWorkload, stream int) (*reference, error) {
	p, err := w.stack(stream)
	if err != nil {
		return nil, err
	}
	ref := &reference{stream: stream, pipe: p, dig: vhash.New(), cur: w.cursor(stream), ov: w.newOverflows(1)[0]}
	p.AddObserver(func(rep *pipeline.IntervalReport) {
		if err := ref.dig.Report(rep); err != nil && ref.err == nil {
			ref.err = err
		}
	})
	return ref, nil
}

func (ref *reference) advance(to int) {
	for ref.n < to {
		ref.cur.next(ref.ov)
		ref.pipe.ProcessOverflow(ref.ov)
		ref.n++
		if ref.n == checkIntervals {
			ref.atCheck = ref.dig.Sum()
		}
	}
}

// advanceAll advances each reference to its stream's count in to, on
// fleetShards goroutines.
func advanceAll(refs []*reference, to func(stream int) int) {
	var wg sync.WaitGroup
	for g := 0; g < fleetShards; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(refs); i += fleetShards {
				refs[i].advance(to(refs[i].stream))
			}
		}(g)
	}
	wg.Wait()
}

// runFleet is the untraced end-to-end run of a fleet workload.
func runFleet(b *bench, setup func(traced bool) (*fleetWorkload, error)) error {
	if b.trace {
		return traceFleet(b, setup)
	}
	k := newRefKernel()
	r, setupS, err := medianSetup(b, k, func() (*fleetRun, error) {
		w, err := setup(false)
		if err != nil {
			return nil, err
		}
		return newFleetRun(w, false, false, 0)
	}, func(r *fleetRun) { r.f.Close() })
	if err != nil {
		return err
	}
	// Not defer r.f.Close(): that would keep the fleet reachable after
	// it is dropped for the heap baseline below.
	defer func() {
		if r.f != nil {
			r.f.Close()
		}
	}()
	b.set("setup_s", setupS, "s")

	var refs []*reference
	for _, s := range r.w.checkStreams {
		ref, err := newReference(r.w, s)
		if err != nil {
			return err
		}
		refs = append(refs, ref)
	}
	advanceAll(refs, func(int) int { return checkIntervals })

	// Warm-up, checked in-band against the references.
	heap := &heapPeak{}
	heap.read()
	r.fill(checkIntervals)
	for _, ref := range refs {
		b.attempted++
		info, err := r.f.StreamInfo(ref.stream)
		if err != nil || info.Intervals != checkIntervals || info.Digest != ref.atCheck {
			b.fail("stream %d after %d intervals: digest %#x (err %v), per-item reference %#x",
				ref.stream, info.Intervals, info.Digest, err, ref.atCheck)
		}
	}
	r.fill(warmIntervals - checkIntervals)

	steal0 := stealSeconds()
	m, err := r.measure(b.seconds, heap, k)
	if err != nil {
		return err
	}
	b.details["steal_s"] = stealSeconds() - steal0
	heap.read()
	r.checkDropped(b)
	digests := r.streamDigests(b)
	// The fleet's own heap: its peak less what the benchmark holds beside
	// it (recordings, reference stacks, probes), read with the fleet
	// closed and dropped. Undiminished, the replay's ~50 MiB of
	// recordings would hide even a doubling of its ~9 MiB fleet.
	r.f.Close()
	r.f = nil
	var rest heapPeak
	rest.read()
	runtime.KeepAlive(k) // the kernel is the benchmark's, so in rest too
	b.set("peak_heap_mb", heap.mb()-rest.mb(), "MiB")
	b.details["heap_benchmark_mb"] = rest.mb()

	// The sample streams' references replay the whole run.
	var whole []*reference
	for _, ref := range refs {
		if slices.Contains(sampleStreams(r.w.streams), ref.stream) {
			whole = append(whole, ref)
		}
	}
	advanceAll(whole, func(s int) int { return r.pushed[s] })
	for _, ref := range whole {
		b.attempted++
		if ref.err != nil || digests[ref.stream] != ref.dig.Sum() {
			b.fail("stream %d after %d intervals: fleet digest %#x, per-item reference %#x (err %v)",
				ref.stream, ref.n, digests[ref.stream], ref.dig.Sum(), ref.err)
		}
	}
	b.attempted += int64(r.total) + int64(m.snapshots)

	cpuUs, snapMs, scale := median(m.cpuUs), median(m.snapMs), speedScale(m.refMs)
	b.set("interval_cpu_us", cpuUs*scale, "us")
	b.set("snapshot_cpu_ms", snapMs*scale, "ms")
	b.details["interval_cpu_us_raw"] = cpuUs
	b.details["snapshot_cpu_ms_raw"] = snapMs
	b.details["ref_ms"] = m.refMs
	b.details["speed_scale"] = scale
	b.details["intervals"] = r.total
	b.details["window_cpu_us"] = m.cpuUs
	b.details["window_intervals_per_s"] = m.rates
	b.details["intervals_per_s"] = median(m.rates)
	b.details["snapshot_cpu_ms_all"] = m.snapMs
	q1, _, q3 := quartiles(m.cpuUs)
	fmt.Fprintf(os.Stderr, "perfbench: %d intervals in %d windows: %.2f us processor time per interval (q1 %.2f q3 %.2f), %.0f intervals/s wall; %d snapshots, %.3f ms processor time each; reference kernel %.3f ms (scale %.3f); %.2fs stolen\n",
		r.total, len(m.cpuUs), cpuUs, q1, q3, median(m.rates), m.snapshots, snapMs, median(m.refMs), scale, b.details["steal_s"])
	return nil
}

// passResult is one fixed-length pass of a traced run.
type passResult struct {
	run     *fleetRun
	digests []uint64
	counts  *counts
	wallNs  int64
	mallocs uint64
	pauseNs uint64
	waits   []float64
}

// pass runs traceIntervals per stream through a fresh fleet.
func fleetPass(b *bench, w *fleetWorkload, traced bool) (*passResult, error) {
	r, err := newFleetRun(w, true, traced, w.traceIntervals+16)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	m0, t0 := readMem(), now()
	r.fill(w.traceIntervals)
	pr := &passResult{run: r, wallNs: now() - t0}
	m1 := readMem()
	pr.mallocs, pr.pauseNs = m1.mallocs-m0.mallocs, m1.pauseNs-m0.pauseNs
	r.checkDropped(b)
	pr.digests = r.streamDigests(b)
	pr.counts = r.counts()
	pr.waits = r.waits()
	b.attempted += int64(r.total)
	return pr, nil
}

// traceFleet is the traced run of a fleet workload: an untraced and a
// traced pass over the same fixed input, whose digests and counts must
// agree, then per-layer metrics from the traced pass's spans.
func traceFleet(b *bench, setup func(traced bool) (*fleetWorkload, error)) error {
	w, err := setup(true)
	if err != nil {
		return err
	}
	base, err := fleetPass(b, w, false)
	if err != nil {
		return err
	}
	base.run.f.Close()
	tr, err := fleetPass(b, w, true)
	if err != nil {
		return err
	}
	defer tr.run.f.Close()

	for s := range base.digests {
		b.attempted++
		if tr.digests[s] != base.digests[s] {
			b.fail("stream %d: traced digest %#x != untraced %#x", s, tr.digests[s], base.digests[s])
		}
		p := tr.run.probes[s]
		b.attempted++
		if p.hashErr != nil || p.dig.Sum() != tr.digests[s] {
			b.fail("stream %d: observer digest %#x != fleet digest %#x (err %v)", s, p.dig.Sum(), tr.digests[s], p.hashErr)
		}
	}
	b.attempted++
	if !tr.counts.equal(base.counts) {
		b.fail("traced counts %+v differ from untraced %+v", summary(tr.counts), summary(base.counts))
	}

	// Two more passes in the opposite order, traced then untraced, so
	// that drift between passes cancels out of the tracing overhead.
	tr2, err := fleetPass(b, w, true)
	if err != nil {
		return err
	}
	tr2.run.f.Close()
	base2, err := fleetPass(b, w, false)
	if err != nil {
		return err
	}
	base2.run.f.Close()
	for s, d := range base.digests {
		b.attempted++
		if tr2.digests[s] != d || base2.digests[s] != d {
			b.fail("stream %d: repeated passes' digests %#x, %#x != first pass %#x", s, tr2.digests[s], base2.digests[s], d)
		}
	}

	// One restore into a fresh fleet; its re-snapshot must be byte-equal.
	snapBytes, err := tr.run.snapshot()
	if err != nil {
		return err
	}
	fresh, err := newFleet(w, nil)
	if err != nil {
		return err
	}
	defer fresh.Close()
	t := now()
	err = fresh.Restore(snapBytes)
	restoreNs := now() - t
	b.attempted++
	if err != nil {
		b.fail("fleet restore: %v", err)
	} else if again, err := fresh.Snapshot(); err != nil || !bytes.Equal(again, snapBytes) {
		b.fail("re-snapshot after restore differs from the original (%d vs %d bytes, err %v)", len(again), len(snapBytes), err)
	}

	logs := []*spanLog{tr.run.plog, w.setup.log}
	shardBusy := make([]int64, fleetShards)
	for s, p := range tr.run.probes {
		logs = append(logs, p.log)
		for _, sp := range p.log.spans {
			if sp.Name == spanInterval {
				shardBusy[tr.run.f.ShardOf(s)] += sp.End - sp.Start
			}
		}
	}
	lt := sumLayers(logs)
	intervals := float64(tr.run.total)
	busyMin, busyMax := 1.0, 0.0
	for _, ns := range shardBusy {
		f := float64(ns) / float64(tr.wallNs)
		busyMin, busyMax = min(busyMin, f), max(busyMax, f)
	}

	b.set("soak.gen_ns", lt.perCall(spanGen), "ns")
	b.set("ingest.push_ns", float64(lt.total[spanPush])/intervals, "ns")
	b.set("ingest.queue_wait_us_p50", percentile(tr.waits, 50), "us")
	b.set("ingest.queue_depth_max", float64(tr.run.depthMax), "count")
	b.set("ingest.shard_busy_frac_min", busyMin, "fraction")
	b.set("ingest.shard_busy_frac_max", busyMax, "fraction")
	b.set("ingest.drain_ms", lt.perCall(spanDrain)/1e6, "ms")
	b.set("ingest.dropped", float64(tr.run.f.Stats().Dropped), "count")
	setLayerMetrics(b, lt, intervals)
	setCountMetrics(b, tr.counts, w.setup)
	b.set("snap.snapshot_bytes", float64(len(snapBytes)), "bytes")
	b.set("snap.restore_ms", float64(restoreNs)/1e6, "ms")
	setSetupMetrics(b, w.setup, lt)
	b.set("experiments.cell_ms_max", 0, "ms")
	b.set("runtime.allocs_per_interval", float64(base.mallocs)/float64(base.run.total), "count")
	b.set("runtime.gc_pause_ms", float64(base.pauseNs)/1e6, "ms")
	b.set("trace.overhead_frac", overheadFrac(append(base.run.probes, base2.run.probes...),
		append(tr.run.probes, tr2.run.probes...)), "fraction")
	b.details["trace_intervals"] = tr.run.total
	return writeSpans(spanPath(b), logs)
}

func spanPath(b *bench) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.csv", b.outDir, b.workload, b.seed)
}

// setLayerMetrics reports the detector, pipeline and vhash layers' mean
// time per interval.
func setLayerMetrics(b *bench, lt layerTimes, intervals float64) {
	b.set("pipeline.self_ns", float64(lt.self[spanInterval])/intervals, "ns")
	for _, name := range []string{"gpd.observe", "gpd.cpi", "altdetect.bbv", "altdetect.ws", "changepoint.observe", "region.observe", spanVhash} {
		b.set(name+"_ns", float64(lt.total[name])/intervals, "ns")
	}
}

// setCountMetrics reports the exact layer counts.
func setCountMetrics(b *bench, c *counts, st setupStats) {
	b.set("region.regions", float64(c.Regions), "count")
	b.set("region.formations", float64(c.Formations), "count")
	b.set("region.ucr_frac", median(c.UCR), "fraction")
	b.set("lpd.phase_changes", float64(c.LPDChanges), "count")
	perEval := 0.0
	if c.CPEvals > 0 {
		perEval = float64(c.CPChanges) / float64(c.CPEvals)
	}
	b.set("changepoint.changes_per_eval", perEval, "fraction")
	b.set("hpm.overflows", float64(st.overflows), "count")
	b.set("hpm.samples", float64(st.samples), "count")
}

// setSetupMetrics reports the simulator and workload-construction layers
// from the (traced) recording or sweep cells.
func setSetupMetrics(b *bench, st setupStats, lt layerTimes) {
	b.set("sim.self_ms", float64(lt.self[spanSimRun])/1e6, "ms")
	cps := 0.0
	if lt.self[spanSimRun] > 0 {
		cps = float64(st.cycles) * 1e9 / float64(lt.self[spanSimRun])
	}
	b.set("sim.cycles_per_s", cps, "1/s")
	b.set("workload.build_ms", float64(lt.total[spanBuild])/1e6, "ms")
}

func summary(c *counts) map[string]int {
	return map[string]int{"intervals": c.Intervals, "formations": c.Formations, "regions": c.Regions,
		"lpd_changes": c.LPDChanges, "cp_evals": c.CPEvals, "cp_changes": c.CPChanges, "ucr_values": len(c.UCR)}
}
