// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the CrawlerBox system through its public entry
// points (report.Analyze and the Run renders, the ingest.Service, and the
// tracestore triage calls), checks the outputs, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a
// separately instrumented run reports the per-layer set. README.md in this
// directory defines every workload and metric.
//
//	bash perfbench/run.sh --workload serve-steady --seed 7 --seconds 35 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// scale is the corpus scale of every workload: the paper's 5,181 reports.
const scale = 1.0

// outDir holds the run's scratch files (journals, evidence stores,
// segments), the span file and the CPU profile, relative to the checkout.
const outDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's state: the flags, the deadline, and the
// metrics and check outcomes the workload records.
type bench struct {
	workload string
	seed     int64
	traced   bool
	workers  int
	deadline time.Time
	dir      string

	attempted int64
	failed    int64
	checksBad int
	values    map[string]float64
}

var workloads = map[string]func(context.Context, *bench) error{
	"study":        runStudy,
	"serve-steady": runServe,
	"serve-storm":  runServe,
}

func main() {
	workload := flag.String("workload", "", "workload name: study, serve-steady or serve-storm")
	seed := flag.Int64("seed", 42, "workload seed: drives the corpus, the arrivals and the storm duplication")
	seconds := flag.Int("seconds", 35, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload study|serve-steady|serve-storm, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		traced:   *trace == 1,
		workers:  runtime.NumCPU(),
		values:   map[string]float64{},
	}
	b.dir = filepath.Join(outDir, fmt.Sprintf("%s-s%d-t%d", b.workload, b.seed, *trace))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(b.dir)
	b.deadline = time.Now().Add(time.Duration(*seconds) * time.Second)
	fmt.Printf("env: %s\n", envLine(b.workers))
	//cblint:ignore ctxflow main owns the benchmark's root context
	if err := run(context.Background(), b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(b.dir)
		os.Exit(1)
	}
	b.set("failed_ratio", float64(b.failed)/float64(max(b.attempted, 1)))
	res := b.result()
	b.printTable()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(b.dir)
		os.Exit(1)
	}
}

// set records one metric value by name; units come from the metric tables.
// A value that is not finite (a latency percentile that fell on a missed
// verdict) reads -1; the miss itself fails the run.
func (b *bench) set(name string, v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = -1
	}
	b.values[name] = v
}

// check records one output check; a failed check fails the run and counts
// as a failed operation.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.checksBad++
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

// result assembles the JSON result: the end-to-end metrics untraced, the
// per-layer metrics traced. A per-layer metric whose seam the workload
// does not cross reads 0 (README.md lists which).
func (b *bench) result() result {
	table := endToEnd
	if b.traced {
		table = perLayer()
	}
	res := result{
		Correct:   b.checksBad == 0 && b.failed == 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range table {
		res.Metrics[m.name] = metric{Value: b.values[m.name], Unit: m.unit}
	}
	return res
}

// printTable prints every recorded metric by name and unit, end-to-end
// metrics first, for the human reader; the JSON line follows it.
func (b *bench) printTable() {
	units := map[string]string{}
	for _, m := range perLayer() {
		units[m.name] = m.unit
	}
	fmt.Printf("%s seed=%d trace=%v workers=%d\n", b.workload, b.seed, b.traced, b.workers)
	for _, m := range endToEnd {
		fmt.Printf("  %-36s %14.4f %s\n", m.name, b.values[m.name], m.unit)
	}
	names := make([]string, 0, len(b.values))
	for name := range b.values {
		if _, ok := units[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-36s %14.4f %s\n", name, b.values[name], units[name])
	}
}

// envLine records the hardware and toolchain next to the results.
func envLine(workers int) string {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	line, _ := json.Marshal(env)
	return string(line)
}

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

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settledHeap is the live heap after two collections.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// stealTime is the time the hypervisor withheld this machine's vCPUs
// while they had work, summed over vCPUs: the steal column of the
// aggregate line of /proc/stat, in USER_HZ (100 per second) ticks. It
// reads 0 where the kernel does not report it.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100)
}

// loopCost is one closed-loop phase's cost: wall, CPU and bytes allocated.
type loopCost struct {
	start time.Time
	cpu   time.Duration
	steal time.Duration
	alloc uint64
	wall  time.Duration
	// stolen is the phase's steal time per vCPU: how long, on average, the
	// hypervisor kept each of the machine's vCPUs from running it.
	stolen time.Duration
}

func startCost() loopCost {
	return loopCost{start: time.Now(), cpu: cpuTime(), steal: stealTime(), alloc: totalAlloc()}
}

// finish closes the phase and returns msgs/s, CPU ms/msg and KiB/msg. The
// rate is over the wall time less the steal per vCPU: time in which the
// hypervisor ran other tenants instead of this machine measures the host,
// not the program. On a machine of its own steal is 0 and the rate is the
// plain wall rate.
func (c *loopCost) finish(msgs int) (perSec, cpuMs, allocKB float64) {
	c.wall = time.Since(c.start)
	c.stolen = (stealTime() - c.steal) / time.Duration(runtime.NumCPU())
	if c.stolen < 0 || c.stolen >= c.wall {
		c.stolen = 0 // an unreadable or inconsistent counter
	}
	cpu := cpuTime() - c.cpu
	alloc := totalAlloc() - c.alloc
	n := float64(msgs)
	return n / (c.wall - c.stolen).Seconds(), float64(cpu) / 1e6 / n, float64(alloc) / 1024 / n
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

// passDone reports whether the closed-loop pass loop should stop: at
// least minPasses ran and a next pass as long as the last one would end
// more than half a pass past the deadline.
func (b *bench) passDone(passes, minPasses int, last time.Duration) bool {
	if passes < minPasses {
		return false
	}
	return time.Now().Add(last / 2).After(b.deadline)
}
