package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"

	"regionmon/internal/experiments"
	"regionmon/internal/gpd"
	"regionmon/internal/hpm"
	"regionmon/internal/pipeline"
	"regionmon/internal/region"
	"regionmon/internal/sim"
	"regionmon/internal/workload"
)

// paper-sweep: the Figure 13/14 grid (eight benchmarks x three periods)
// through experiments.RunSweepParallel with two workers, at the quick
// scale of experiments.TestOptions. Its inputs are the paper's benchmark
// definitions, so it ignores the seed.
const (
	sweepWorkers = 2
	// minSweeps is the fewest timed sweeps a run makes, however short.
	minSweeps = 3
)

// sweepRefNames is the fixed subset of benchmarks whose cells are
// recomputed by the sequential runner and compared.
var sweepRefNames = []string{"181.mcf", "191.fma3d"}

// loadBenchmark builds name at the options' work and time scales, the way
// the experiments runners do.
func loadBenchmark(opts experiments.Options, name string) (*workload.Benchmark, error) {
	ts := float64(opts.Periods[0]) / 45_000
	return workload.ByNameScales(name, opts.Scale*ts, ts)
}

// cellRun is one sweep cell re-driven from public calls: the benchmark
// program on the simulator, the sampling monitor, and the runner's
// detector stack (GPD + region monitor retaining its full UCR history).
type cellRun struct {
	bench  string
	period uint64
	probe  *probe
	pipe   *pipeline.Pipeline
	gdet   *gpd.Detector
	mon    *hpm.Monitor
	cycles uint64
	snap   []byte // the stack's snapshot at the end of the run
}

// cellStack builds the runner's per-cell detector stack over prog.
func cellStack(prog *workload.Benchmark) (*pipeline.Pipeline, *gpd.Detector, error) {
	gdet, err := gpd.New(gpd.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	rcfg := region.DefaultConfig()
	rcfg.UCRHistoryCap = region.RetainAllHistory
	rmon, err := region.NewMonitor(prog.Prog, rcfg)
	if err != nil {
		return nil, nil, err
	}
	p := pipeline.New()
	p.MustRegister(pipeline.NewGPD(gdet))
	p.MustRegister(pipeline.NewRegionMonitor(rmon))
	return p, gdet, nil
}

// driveCell runs one cell. Traced, the cell's spans nest as
// experiments.cell > {workload.build, sim.run > pipeline.interval > ...}.
func driveCell(opts experiments.Options, c *cellRun) error {
	pr := c.probe
	cell := int32(-1)
	if pr.log != nil {
		cell = pr.log.begin(spanCell, -1, -1)
		defer func() { pr.log.end(cell) }()
	}
	var sp int32
	if pr.log != nil {
		sp = pr.log.begin(spanBuild, cell, -1)
	}
	bench, err := loadBenchmark(opts, c.bench)
	if pr.log != nil {
		pr.log.end(sp)
	}
	if err != nil {
		return err
	}
	p, gdet, err := cellStack(bench)
	if err != nil {
		return err
	}
	if pr.counts != nil || pr.log != nil {
		if p, err = instrument(p, pr); err != nil {
			return err
		}
	}
	p.AddObserver(pr.observe)
	c.pipe, c.gdet = p, gdet
	mon, err := hpm.New(hpm.Config{Period: c.period, BufferSize: opts.BufferSize, JitterFrac: opts.JitterFrac},
		func(ov *hpm.Overflow) { p.ProcessOverflow(ov) })
	if err != nil {
		return err
	}
	c.mon = mon
	ex, err := sim.NewExecutor(bench.Prog, bench.Sched, mon)
	if err != nil {
		return err
	}
	if pr.log != nil {
		pr.parent = pr.log.begin(spanSimRun, cell, -1)
	}
	res := ex.Run()
	if pr.log != nil {
		pr.log.end(pr.parent)
	}
	c.cycles = res.Cycles
	c.snap, err = p.Snapshot()
	return err
}

// checkpointAll snapshots every cell's stack.
func checkpointAll(cells []*cellRun) error {
	for _, c := range cells {
		if _, err := c.pipe.Snapshot(); err != nil {
			return err
		}
	}
	return nil
}

// redrive runs every cell of the grid on sweepWorkers goroutines.
func redrive(opts experiments.Options, names []string, counting, traced bool) ([]*cellRun, error) {
	var cells []*cellRun
	for _, name := range names {
		for _, period := range opts.Periods {
			cells = append(cells, &cellRun{bench: name, period: period,
				probe: newProbe(len(cells), 1024, counting, traced, 16384)})
		}
	}
	errs := make([]error, len(cells))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = driveCell(opts, cells[i])
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %s @ %d: %w", cells[i].bench, cells[i].period, err)
		}
	}
	return cells, nil
}

// checkCells compares re-driven cells against the runner's result.
func checkCells(b *bench, res *experiments.SweepResult, cells []*cellRun) {
	for _, c := range cells {
		b.attempted++
		want := res.Cell(c.bench, c.period)
		switch {
		case want == nil:
			b.fail("runner has no cell %s @ %d", c.bench, c.period)
		case c.pipe.Intervals() != want.Intervals || c.gdet.PhaseChanges() != want.GPDChanges:
			b.fail("cell %s @ %d: re-driven intervals %d, GPD changes %d; runner %d, %d",
				c.bench, c.period, c.pipe.Intervals(), c.gdet.PhaseChanges(), want.Intervals, want.GPDChanges)
		}
	}
}

func runPaperSweep(b *bench) error {
	opts := experiments.TestOptions()
	names := experiments.Fig13Names()
	if b.trace {
		return traceSweep(b, opts, names)
	}
	k := newRefKernel()
	_, setupS, err := medianSetup(b, k, func() ([]*workload.Benchmark, error) {
		var out []*workload.Benchmark
		for _, name := range names {
			bench, err := loadBenchmark(opts, name)
			if err != nil {
				return nil, err
			}
			out = append(out, bench)
		}
		return out, nil
	}, func([]*workload.Benchmark) {})
	if err != nil {
		return err
	}
	b.set("setup_s", setupS, "s")

	// Re-drive the grid once from public calls; its stacks are then
	// checkpointed in a group of passes after every timed sweep.
	cells, err := redrive(opts, names, false, false)
	if err != nil {
		return err
	}
	// The benchmark's own live heap (mostly the re-driven cell stacks),
	// taken off each sweep's peak below.
	var rest heapPeak
	rest.read()
	steal0 := stealSeconds()
	var first *experiments.SweepResult
	var cpus, walls, snaps, heaps, refs []float64
	passes := 0
	end := now() + int64(b.seconds*1e9)
	for len(cpus) < minSweeps || now() < end {
		var res *experiments.SweepResult
		var secs float64
		// Start from a collected heap, so the checkpoint passes' garbage
		// is neither marked nor counted during the sweep.
		runtime.GC()
		t := now()
		peak, err := heapDuring(func() (err error) {
			secs, err = cpuTime(func() (err error) {
				res, err = experiments.RunSweepParallel(opts, names, sweepWorkers)
				return err
			})
			return err
		})
		if err != nil {
			return err
		}
		walls = append(walls, float64(now()-t)/1e9)
		heaps = append(heaps, float64(peak)/(1<<20)-rest.mb())
		cpus = append(cpus, secs)
		b.attempted += int64(len(res.Cells))
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(res.Cells, first.Cells) {
			b.fail("sweep %d differs from the first sweep", len(cpus))
		}
		// Collect the sweep's garbage first, so the checkpoint passes do
		// not pay for marking it.
		runtime.GC()
		ms, n, err := snapshotGroup(func() error { return checkpointAll(cells) })
		if err != nil {
			return err
		}
		snaps = append(snaps, ms)
		passes += n
		refs = append(refs, k.sample())
	}
	b.details["steal_s"] = stealSeconds() - steal0

	seq, err := experiments.RunSweep(opts, sweepRefNames)
	if err != nil {
		return err
	}
	for _, want := range seq.Cells {
		b.attempted++
		if got := first.Cell(want.Bench, want.Period); got == nil || !reflect.DeepEqual(*got, want) {
			b.fail("parallel cell %s @ %d differs from the sequential runner", want.Bench, want.Period)
		}
	}
	checkCells(b, first, cells)
	b.attempted += int64(passes)

	intervals := 0
	for _, c := range first.Cells {
		intervals += c.Intervals
	}
	cpuUs, scale := median(cpus)*1e6/float64(intervals), speedScale(refs)
	b.set("interval_cpu_us", cpuUs*scale, "us")
	b.set("snapshot_cpu_ms", median(snaps)*scale, "ms")
	// A sweep's working state is garbage once it returns, so the live
	// heap is polled while each sweep runs. It changes only when a
	// collection ends, and where those fall in a sweep varies, so one
	// sweep's largest reading swings by a fifth, and the largest over a
	// run by a tenth; the 90th percentile over the run's sweeps holds.
	b.set("peak_heap_mb", percentile(heaps, 90), "MiB")
	b.details["sweep_cpu_s"] = cpus
	b.details["interval_cpu_us_raw"] = cpuUs
	b.details["snapshot_cpu_ms_raw"] = median(snaps)
	b.details["ref_ms"] = refs
	b.details["speed_scale"] = scale
	b.details["sweep_s"] = walls
	b.details["snapshot_cpu_ms_passes"] = snaps
	b.details["sweep_heap_mb"] = heaps
	b.details["heap_benchmark_mb"] = rest.mb()
	b.details["grid_intervals"] = intervals
	q1, _, q3 := quartiles(cpus)
	fmt.Fprintf(os.Stderr, "perfbench: %d sweeps of %d intervals: %.3f s processor time (q1 %.3f q3 %.3f), %.3f s wall; %.2f us per interval; checkpoint pass %.3f ms; reference kernel %.3f ms (scale %.3f); %.2fs stolen\n",
		len(cpus), intervals, median(cpus), q1, q3, median(walls), cpuUs, median(snaps), median(refs), scale, b.details["steal_s"])
	return nil
}

// traceSweep re-drives the grid untraced and traced, checks both against
// the runner and each other, and reports the simulator, workload and
// experiments layers alongside the detector layers.
func traceSweep(b *bench, opts experiments.Options, names []string) error {
	res, err := experiments.RunSweepParallel(opts, names, sweepWorkers)
	if err != nil {
		return err
	}
	b.attempted += int64(len(res.Cells))

	runtime.GC()
	m0 := readMem()
	base, err := redrive(opts, names, true, false)
	if err != nil {
		return err
	}
	m1 := readMem()
	tr, err := redrive(opts, names, true, true)
	if err != nil {
		return err
	}
	// Two more re-drives in the opposite order, traced then untraced, so
	// that drift between passes cancels out of the tracing overhead.
	tr2, err := redrive(opts, names, true, true)
	if err != nil {
		return err
	}
	base2, err := redrive(opts, names, true, false)
	if err != nil {
		return err
	}
	for _, cells := range [][]*cellRun{base, tr, tr2, base2} {
		checkCells(b, res, cells)
	}

	baseCounts, trCounts := &counts{}, &counts{}
	var st setupStats
	var logs []*spanLog
	var cellMax, restoreNs int64
	var snapBytes, intervals int
	for i, c := range tr {
		baseCounts.merge(base[i].probe.counts)
		trCounts.merge(c.probe.counts)
		b.attempted++
		if c.probe.hashErr != nil || c.probe.dig.Sum() != base[i].probe.dig.Sum() {
			b.fail("cell %s @ %d: traced digest differs from untraced (err %v)", c.bench, c.period, c.probe.hashErr)
		}
		logs = append(logs, c.probe.log)
		st.overflows += c.mon.Deliveries()
		st.samples += int(c.mon.TotalSamples())
		st.cycles += c.cycles
		intervals += c.pipe.Intervals()
		for _, sp := range c.probe.log.spans {
			if sp.Name == spanCell {
				cellMax = max(cellMax, sp.End-sp.Start)
			}
		}
		// Restore each cell's stack into a fresh one; its re-snapshot
		// must be byte-equal.
		bench, err := loadBenchmark(opts, c.bench)
		if err != nil {
			return err
		}
		fresh, _, err := cellStack(bench)
		if err != nil {
			return err
		}
		t := now()
		err = fresh.Restore(c.snap)
		restoreNs += now() - t
		snapBytes += len(c.snap)
		b.attempted++
		if err != nil {
			b.fail("cell %s @ %d: restore: %v", c.bench, c.period, err)
		} else if again, err := fresh.Snapshot(); err != nil || !bytes.Equal(again, c.snap) {
			b.fail("cell %s @ %d: re-snapshot after restore differs", c.bench, c.period)
		}
	}
	b.attempted++
	if !trCounts.equal(baseCounts) {
		b.fail("traced counts %+v differ from untraced %+v", summary(trCounts), summary(baseCounts))
	}

	lt := sumLayers(logs)
	n := float64(intervals)
	b.set("soak.gen_ns", 0, "ns")
	b.set("ingest.push_ns", 0, "ns")
	b.set("ingest.queue_wait_us_p50", 0, "us")
	b.set("ingest.queue_depth_max", 0, "count")
	b.set("ingest.shard_busy_frac_min", 0, "fraction")
	b.set("ingest.shard_busy_frac_max", 0, "fraction")
	b.set("ingest.drain_ms", 0, "ms")
	b.set("ingest.dropped", 0, "count")
	setLayerMetrics(b, lt, n)
	setCountMetrics(b, trCounts, st)
	b.set("snap.snapshot_bytes", float64(snapBytes), "bytes")
	b.set("snap.restore_ms", float64(restoreNs)/1e6, "ms")
	setSetupMetrics(b, st, lt)
	b.set("experiments.cell_ms_max", float64(cellMax)/1e6, "ms")
	b.set("runtime.allocs_per_interval", float64(m1.mallocs-m0.mallocs)/n, "count")
	b.set("runtime.gc_pause_ms", float64(m1.pauseNs-m0.pauseNs)/1e6, "ms")
	var baseProbes, trProbes []*probe
	for i := range base {
		baseProbes = append(baseProbes, base[i].probe, base2[i].probe)
		trProbes = append(trProbes, tr[i].probe, tr2[i].probe)
	}
	b.set("trace.overhead_frac", overheadFrac(baseProbes, trProbes), "fraction")
	b.details["trace_intervals"] = intervals
	return writeSpans(spanPath(b), logs)
}
