// Command perfbench is regionmon's end-to-end benchmark. It drives three
// workloads through the repository's entry points and prints one JSON
// result line:
//
//	fleet-soak    closed loop: soak generator -> ingest fleet -> six-detector pipeline
//	paper-replay  closed loop: recorded sim+hpm streams -> ingest fleet -> paper System stack
//	paper-sweep   batch: the Figure 13/14 grid through experiments.RunSweepParallel
//
// With --trace 0 it reports the end-to-end metrics, all of them in
// processor time; with --trace 1 it runs a fixed amount of work in four
// passes, untraced and traced, and reports per-layer metrics derived from
// spans recorded around each layer call.
// See README.md for the workloads, the metrics and how they relate.
//
// Usage (from the repository root):
//
//	bash _perfbench/run.sh --workload fleet-soak --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// gomaxprocs sizes the benchmark for a two-CPU machine: one process,
// two shards or two sweep workers.
const gomaxprocs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run's configuration and accumulating outcome.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string

	attempted, failed int64
	metrics           map[string]metric
	details           map[string]any // written to the result file only
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// fail counts one failed operation and says why on stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

var workloads = map[string]func(*bench) error{
	"fleet-soak":   runFleetSoak,
	"paper-replay": runPaperReplay,
	"paper-sweep":  runPaperSweep,
}

func main() {
	b := &bench{metrics: map[string]metric{}, details: map[string]any{}}
	flag.StringVar(&b.workload, "workload", "", "fleet-soak, paper-replay or paper-sweep")
	flag.Uint64Var(&b.seed, "seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&b.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span and result files")
	flag.Parse()

	run, ok := workloads[b.workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fleet-soak|paper-replay|paper-sweep --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b.seconds = float64(*seconds)
	b.trace = *trace == 1
	runtime.GOMAXPROCS(gomaxprocs)
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		fatal(err)
	}

	fp := fingerprint()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d on %s\n", b.workload, b.seed, *seconds, *trace, fp["cpu_model"])
	if err := run(b); err != nil {
		fatal(err)
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	fmt.Fprintf(os.Stderr, "perfbench: error_rate %.6g (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)

	full := map[string]any{"workload": b.workload, "seed": b.seed, "seconds": *seconds, "trace": *trace,
		"fingerprint": fp, "result": res, "details": b.details}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", b.workload, b.seed, *trace)
	if err := writeJSON(filepath.Join(b.outDir, name), full); err != nil {
		fatal(err)
	}
	fpLine, _ := json.Marshal(map[string]any{"fingerprint": fp})
	fmt.Println(string(fpLine))
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// fingerprint describes the machine and toolchain a result came from.
func fingerprint() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
	}
}

// cpuModel reads the processor name the kernel reports; "unknown" where
// there is no /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealSeconds returns the processor time the hypervisor has taken from
// this machine's processors since boot (the steal column of /proc/stat),
// or 0 where that is unavailable. Results record it beside the wall-clock
// readings, which steal slows and the processor-time metrics do not.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// memSnapshot is a before/after reading for allocation and GC metrics.
type memSnapshot struct{ mallocs, pauseNs uint64 }

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{ms.Mallocs, ms.PauseTotalNs}
}

// heapPeak tracks the peak live heap at quiescent points of a fleet run,
// where the program's state persists in the stacks. Each reading follows
// a full collection, so it counts what the program retains. A peak polled
// on the fleets also counted whatever was allocated while a concurrent
// collection happened to be marking, and swung by a third between runs.
type heapPeak struct{ peak uint64 }

const heapMetric = "/gc/heap/live:bytes"

// read collects garbage and folds the live heap into the peak.
func (h *heapPeak) read() {
	runtime.GC()
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	h.peak = max(h.peak, s[0].Value.Uint64())
}

// mb returns the peak in MiB.
func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// heapPoll is how often heapDuring reads the live heap.
const heapPoll = time.Millisecond

// heapDuring runs fn while a goroutine polls the live heap, and returns
// the largest reading in bytes. The live heap changes only when a
// collection finishes marking, so the poll sees every collection during
// fn that is not followed by another within heapPoll.
func heapDuring(fn func() error) (uint64, error) {
	stop, done := make(chan struct{}), make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(heapPoll)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	err := fn()
	close(stop)
	return <-done, err
}

// cpuNs returns the processor time this process has used so far, in ns:
// every thread's, the runtime's collector included. The kernel leaves
// out the time the hypervisor stole and the time threads waited for a
// processor, so the reading follows the work done, not the share of a
// shared machine the run happened to get.
func cpuNs() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// settleNs is how long cpuTime lets the process go idle before each
// reading. The kernel adds a thread's processor time to the process total
// when the thread stops running or at a scheduler tick (4 ms at 250 Hz),
// so a reading taken while another thread runs can be a tick short. Once
// every thread sleeps, the total is exact.
const settleNs = 2e6

// cpuTime returns the processor time fn used, in seconds, with fn's
// error. Nothing else may run in the process meanwhile, and fn must
// leave no goroutine running when it returns.
func cpuTime(fn func() error) (float64, error) {
	time.Sleep(settleNs)
	c := cpuNs()
	err := fn()
	time.Sleep(settleNs)
	return float64(cpuNs()-c) / 1e9, err
}

// Set-up repeats until it has run at least minSetupReps times and for
// setupBudgetS seconds in all, at most maxSetupReps times. Cheap set-ups
// thus repeat often enough that their warm-up reps and collections do
// not move the median.
const (
	minSetupReps = 5
	maxSetupReps = 101
	setupBudgetS = 1.0
)

// medianSetup repeats setup, keeping the last result, and returns the
// median processor time in seconds over the reps, scaled by the kernel
// samples taken before, between (every 0.1 s of set-up) and after them.
// Every time goes to the result file. Earlier results are passed to
// discard.
func medianSetup[T any](b *bench, k *refKernel, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []float64
	refs := []float64{k.sample()}
	spent, sampled := 0.0, 0.0
	for r := 0; r < maxSetupReps && (r < minSetupReps || spent < setupBudgetS); r++ {
		if r > 0 {
			discard(last)
		}
		runtime.GC()
		var v T
		secs, err := cpuTime(func() (err error) { v, err = setup(); return err })
		if err != nil {
			return last, 0, err
		}
		last = v
		times = append(times, secs)
		if spent += secs; spent-sampled >= 0.1 {
			refs = append(refs, k.sample())
			sampled = spent
		}
	}
	refs = append(refs, k.sample())
	b.details["setup_s_reps"] = times
	b.details["setup_s_raw"] = median(times)
	b.details["setup_ref_ms"] = refs
	return last, median(times) * speedScale(refs), nil
}
