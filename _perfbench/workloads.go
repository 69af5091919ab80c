package main

import (
	"fmt"

	"regionmon"
	"regionmon/internal/experiments"
	"regionmon/internal/hpm"
	"regionmon/internal/ingest"
	"regionmon/internal/pipeline"
	"regionmon/internal/sim"
	"regionmon/internal/soak"
	"regionmon/internal/workload"
)

// fleet-soak: the soak generator's phase-rotating synthetic streams into
// the six-detector soak stack, closed loop, BENCH_ingest's full-stack
// shape (64 streams x 96 samples, 16-interval PushBatchWait, 2 shards).
const (
	soakStreams        = 64
	soakSamples        = 96
	soakBatch          = 16
	soakTraceIntervals = 512
)

// golden spaces per-stream seeds, as soak.RunFleet does.
const golden = 0x9e3779b97f4a7c15

type soakCursor struct {
	g *soak.Workload
	i int
}

func (c *soakCursor) next(ov *hpm.Overflow) {
	c.g.IntervalInto(c.i, ov)
	c.i++
}

func setupSoak(seed uint64) func(bool) (*fleetWorkload, error) {
	return func(bool) (*fleetWorkload, error) {
		_, loops, err := soak.BuildProgram()
		if err != nil {
			return nil, err
		}
		return &fleetWorkload{
			streams:        soakStreams,
			maxSamples:     soakSamples,
			batch:          soakBatch,
			traceIntervals: soakTraceIntervals,
			// Every stream runs the same generator; four represent them.
			checkStreams: sampleStreams(soakStreams),
			stack: func(int) (*pipeline.Pipeline, error) {
				prog, _, err := soak.BuildProgram()
				if err != nil {
					return nil, err
				}
				return soak.NewStack(prog)
			},
			cursor: func(s int) cursor {
				return &soakCursor{g: soak.NewWorkload(seed+uint64(s)*golden, loops, soakSamples)}
			},
			newOverflows: func(n int) []*hpm.Overflow { return soak.NewOverflowBatch(n, soakSamples) },
		}, nil
	}
}

func runFleetSoak(b *bench) error { return runFleet(b, setupSoak(b.seed)) }

// paper-replay: sim+hpm recordings of the eight Figure 13 benchmarks at
// the paper's 2032-sample buffer, replayed cyclically into 16 streams of
// the paper's System stack (GPD + region monitor with per-region LPD),
// closed loop. Each benchmark feeds one stream on each shard, so both
// shards carry the same mix.
const (
	replayPerBench = fleetShards
	// replayPeriod is the quick-scale sampling period (1/100 of the
	// paper's 45K, with the workloads' time constants scaled to match,
	// as experiments.TestOptions does).
	replayPeriod         = 450
	replayBatch          = 16
	replayTraceIntervals = 1024
)

// recording is one benchmark's captured overflow stream.
type recording struct {
	bench *workload.Benchmark
	ovs   []hpm.Overflow
	// span is the cycle offset between laps of the cyclic replay.
	span uint64
}

// replayCursor replays a recording cyclically from an offset, keeping
// Seq and Cycle increasing across laps.
type replayCursor struct {
	rec           *recording
	pos, lap, seq int
}

func (c *replayCursor) next(ov *hpm.Overflow) {
	src := &c.rec.ovs[c.pos]
	ov.Samples = src.Samples
	ov.Seq = c.seq
	ov.Cycle = uint64(c.lap)*c.rec.span + src.Cycle
	c.seq++
	if c.pos++; c.pos == len(c.rec.ovs) {
		c.pos, c.lap = 0, c.lap+1
	}
}

// record runs one benchmark on the simulator with the sampling monitor
// and keeps a copy of every overflow. Traced, it spans the workload
// build, the simulator run and each overflow delivery into log.
func record(name string, jitterSeed uint64, log *spanLog, st *setupStats) (*recording, error) {
	ts := float64(replayPeriod) / 45_000
	var sp int32
	if log != nil {
		sp = log.begin(spanBuild, -1, -1)
	}
	bench, err := workload.ByNameScales(name, ts, ts)
	if log != nil {
		log.end(sp)
	}
	if err != nil {
		return nil, err
	}
	rec := &recording{bench: bench}
	var run int32 = -1
	mon, err := hpm.New(hpm.Config{Period: replayPeriod, BufferSize: hpm.DefaultBufferSize, JitterFrac: 0.1, JitterSeed: jitterSeed},
		func(ov *hpm.Overflow) {
			if log != nil {
				sp := log.begin(spanRecord, run, int64(ov.Seq))
				defer log.end(sp)
			}
			rec.ovs = append(rec.ovs, hpm.Overflow{Samples: append([]hpm.Sample(nil), ov.Samples...), Cycle: ov.Cycle, Seq: ov.Seq})
		})
	if err != nil {
		return nil, err
	}
	ex, err := sim.NewExecutor(bench.Prog, bench.Sched, mon)
	if err != nil {
		return nil, err
	}
	if log != nil {
		run = log.begin(spanSimRun, -1, -1)
	}
	res := ex.Run()
	if log != nil {
		log.end(run)
	}
	if len(rec.ovs) == 0 {
		return nil, fmt.Errorf("%s: recording produced no overflows", name)
	}
	rec.span = rec.ovs[len(rec.ovs)-1].Cycle + 1
	st.overflows += mon.Deliveries()
	st.samples += int(mon.TotalSamples())
	st.cycles += res.Cycles
	return rec, nil
}

func setupReplay(seed uint64) func(bool) (*fleetWorkload, error) {
	return func(traced bool) (*fleetWorkload, error) {
		names := experiments.Fig13Names()
		var st setupStats
		if traced {
			st.log = newSpanLog(4096)
		}
		recs := make([]*recording, len(names))
		for i, name := range names {
			rec, err := record(name, seed*uint64(len(names))+uint64(i)+1, st.log, &st)
			if err != nil {
				return nil, err
			}
			recs[i] = rec
		}
		streams := len(names) * replayPerBench
		benchOf, lapOf, err := balance(streams, len(names))
		if err != nil {
			return nil, err
		}
		return &fleetWorkload{
			streams:        streams,
			maxSamples:     hpm.DefaultBufferSize,
			batch:          replayBatch,
			traceIntervals: replayTraceIntervals,
			// The recordings differ by benchmark and seed, so the in-band
			// check covers every stream.
			checkStreams: allStreams(streams),
			stack: func(s int) (*pipeline.Pipeline, error) {
				bench := recs[benchOf[s]].bench
				sys, err := regionmon.NewSystem(bench.Prog, bench.Sched, regionmon.SystemConfig{
					Sampling: regionmon.SamplingConfig{Period: replayPeriod, BufferSize: hpm.DefaultBufferSize},
				})
				if err != nil {
					return nil, err
				}
				return sys.Pipeline(), nil
			},
			cursor: func(s int) cursor {
				rec := recs[benchOf[s]]
				return &replayCursor{rec: rec, pos: lapOf[s] * len(rec.ovs) / replayPerBench}
			},
			newOverflows: func(n int) []*hpm.Overflow {
				ovs := make([]*hpm.Overflow, n)
				for i := range ovs {
					ovs[i] = &hpm.Overflow{}
				}
				return ovs
			},
			setup: st,
		}, nil
	}
}

func allStreams(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// balance assigns benchmarks to streams so that every shard serves each
// benchmark equally often: the fleet's stream-to-shard hash is uneven
// for small fleets, and the benchmarks' costs differ by half again. It
// returns each stream's benchmark and its index among that benchmark's
// streams (which sets its replay offset).
func balance(streams, benches int) (benchOf, lapOf []int, err error) {
	f, err := ingest.NewFleet(streams, ingest.Config{Shards: fleetShards, MaxSamples: 1,
		Build: func(int) (*pipeline.Pipeline, error) { return pipeline.New(), nil }})
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	byShard := make([][]int, fleetShards)
	for s := 0; s < streams; s++ {
		byShard[f.ShardOf(s)] = append(byShard[f.ShardOf(s)], s)
	}
	benchOf, lapOf = make([]int, streams), make([]int, streams)
	for sh, ids := range byShard {
		if len(ids) != benches {
			return nil, nil, fmt.Errorf("shard %d serves %d of %d streams; want %d", sh, len(ids), streams, benches)
		}
		for i, s := range ids {
			benchOf[s], lapOf[s] = i, sh
		}
	}
	return benchOf, lapOf, nil
}

func runPaperReplay(b *bench) error { return runFleet(b, setupReplay(b.seed)) }
