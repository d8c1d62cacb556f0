// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks every output against the
// references in refs.json, and prints one JSON result line:
//
//	perfbench -bin <dir with baexp and balignd> -workload suite-align \
//	    -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 a separate
// traced run times the calls into each layer and reports per-layer metrics.
// -record <file> writes the outputs it sees as the new references instead
// of checking them. See NOTES.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostBlock identifies the machine and its noise during one run, so a
// noisy run can be told apart.
type hostBlock struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	StealS     float64 `json:"steal_s"`
	// Nivcsw counts involuntary context switches of the measured processes.
	Nivcsw int64 `json:"nivcsw"`
}

// env is what every workload runner receives.
type env struct {
	bin     string // directory holding the baexp and balignd binaries
	work    string // scratch directory for daemon files and spans
	seed    int64
	seconds time.Duration
	traced  bool
	gate    *gate
}

// outcome is a workload run's raw result.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	nivcsw            int64
	// info holds sample counts and other context printed beside the result.
	info map[string]any
	// trace is the traced run's span recorder (nil when untraced).
	trace *tracer
}

type workloadDef struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workloadDef{
	{"suite-align", func(e *env) (*outcome, error) { return runSuite(e, "suite-align", alignPrograms, alignScale) }},
	{"suite-sim", func(e *env) (*outcome, error) { return runSuite(e, "suite-sim", simPrograms, simScale) }},
	{"serve-cold", runServeCold},
	{"serve-hot", runServeHot},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measuring time")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding baexp and balignd")
	work := flag.String("work", ".bench_build/work", "scratch directory")
	record := flag.String("record", "", "write the observed outputs as references to this file")
	flag.Parse()

	var def *workloadDef
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q (known: %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	for _, b := range []string{"baexp", "balignd"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			return fmt.Errorf("missing binary: %w", err)
		}
	}
	g, err := newGate(*record != "")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	binAbs, err := filepath.Abs(*bin)
	if err != nil {
		return err
	}
	workAbs, err := filepath.Abs(*work)
	if err != nil {
		return err
	}
	e := &env{bin: binAbs, work: workAbs, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1, gate: g}

	steal0 := hostSteal()
	out, err := def.run(e)
	if err != nil {
		return err
	}
	host := hostBlock{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		StealS:     (hostSteal() - steal0).Seconds(),
		Nivcsw:     out.nivcsw,
	}
	if out.trace != nil {
		out.metrics["host.steal_s"] = metric{host.StealS, "s"}
		out.metrics["host.nivcsw"] = metric{float64(host.Nivcsw), "count"}
		path := filepath.Join(e.work, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := out.trace.write(path, host); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		out.info["spans_file"] = path
	}
	if *record != "" {
		return g.write(*record)
	}

	for _, f := range g.failures {
		fmt.Fprintln(os.Stderr, "perfbench: output mismatch:", f)
	}
	info, err := json.Marshal(map[string]any{"workload": *name, "seed": *seed, "host": host, "info": out.info})
	if err != nil {
		return err
	}
	fmt.Println(string(info))
	res := result{
		Correct:   out.failed == 0 && len(g.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// roundStat is one repetition of a workload's fixed amount of work.
type roundStat struct {
	wall  time.Duration
	cpu   time.Duration // measured process tree, user + sys
	rssMB float64       // peak resident memory of the measured tree
	ops   int           // completed operations
	host  cpuTimes      // the machine's CPU time while the round ran
	// lats holds the latency of every op of the round, corrected for host
	// steal as busy corrects the round: a suite op by the machine's CPU
	// times while it ran, a request by those of a window of requests
	// around it (see unstolenLats).
	lats []time.Duration
	// groups names the kind of each op of lats (a suite's program), or is
	// nil when every op is of one kind.
	groups []string
	failed int   // ops that failed
	nivcsw int64 // involuntary context switches of the measured processes
}

// busy is the round's wall time scaled by the share of the CPU time the
// machine asked for that the hypervisor delivered (see unstolen).
func (r roundStat) busy() time.Duration { return unstolen(r.wall, r.host) }

// unstolen scales wall, the time some work took while the machine's CPU
// times moved by host, by used/(used+steal): the wall time the work would
// have taken had the hypervisor stolen nothing, for work whose progress is
// proportional to the CPU time it gets. On a shared virtual machine the
// hypervisor steals from 0 to 60% of the CPU time asked for, which
// stretches wall time by up to 2.5x.
func unstolen(wall time.Duration, host cpuTimes) time.Duration {
	if host.used <= 0 || host.steal <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * float64(host.used) / float64(host.used+host.steal))
}

// totals sums failures and context switches over rounds.
func totals(rounds []roundStat) (failed int, nivcsw int64) {
	for _, r := range rounds {
		failed += r.failed
		nivcsw += r.nivcsw
	}
	return failed, nivcsw
}

// quietSamples counts the op latencies of the quieter rounds.
func quietSamples(rounds []roundStat) int {
	n := 0
	for _, r := range quietRounds(rounds) {
		n += len(r.lats)
	}
	return n
}

// quietRounds returns the two thirds of the rounds (rounded up) during
// which the host stole the smallest share of the round's wall time. Steal
// is the largest noise source on shared hosts and is measured
// independently of the work, so ranking by it never looks at the measured
// values.
func quietRounds(rounds []roundStat) []roundStat {
	r := append([]roundStat(nil), rounds...)
	share := func(x roundStat) float64 { return x.host.steal.Seconds() / x.wall.Seconds() }
	sort.SliceStable(r, func(i, j int) bool { return share(r[i]) < share(r[j]) })
	return r[:(2*len(r)+2)/3]
}

// endToEnd derives the end-to-end metrics of an untraced run from its
// quieter rounds: medians of the round values, and exact percentiles over
// the latency of every op in those rounds.
func endToEnd(rounds []roundStat, setups []time.Duration, attempted, failed int, cpi float64) (map[string]metric, map[string]any) {
	var wall, cpu, rss, rate, cpuPerOp, setup []float64
	quiet := quietRounds(rounds)
	for _, r := range quiet {
		wall = append(wall, r.busy().Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		rss = append(rss, r.rssMB)
		rate = append(rate, float64(r.ops)/r.busy().Seconds())
		cpuPerOp = append(cpuPerOp, ms(r.cpu)/float64(r.ops))
	}
	for _, s := range setups {
		setup = append(setup, s.Seconds())
	}
	p50, p99, nSamples, nBeyond := groupPercentiles(quiet)
	m := map[string]metric{
		"setup_s":       {median(setup), "s"},
		"wall_s":        {median(wall), "s"},
		"cpu_s":         {median(cpu), "s"},
		"peak_rss_mb":   {median(rss), "MB"},
		"ops_per_s":     {median(rate), "1/s"},
		"op_p50_ms":     {ms(p50), "ms"},
		"op_p99_ms":     {ms(p99), "ms"},
		"cpu_ms_per_op": {median(cpuPerOp), "ms"},
		"ok_frac":       {float64(attempted-failed) / float64(attempted), "ratio"},
		"cpi_try15":     {cpi, "ratio"},
	}
	info := map[string]any{
		"rounds":                len(rounds),
		"quiet_rounds":          len(quiet),
		"setups":                len(setups),
		"op_samples":            nSamples,
		"beyond_p99":            nBeyond,
		"fail_frac":             float64(failed) / float64(attempted),
		"round_wall_steal_used": roundTimes(rounds),
	}
	return m, info
}

// groupPercentiles returns the exact p50 and p99 op latency of rounds: the
// nearest-rank percentiles of each kind of op, combined over kinds by
// their geometric mean. A suite's programs take between 1 and 2 s each, so
// a percentile over all of them would land on whichever program the host's
// noise happened to place in the middle; per program it stays on one. It
// also returns the sample count and how many samples lie beyond their
// kind's p99.
func groupPercentiles(rounds []roundStat) (p50, p99 time.Duration, samples, beyondP99 int) {
	byGroup := map[string][]time.Duration{}
	for _, r := range rounds {
		for i, l := range r.lats {
			g := ""
			if r.groups != nil {
				g = r.groups[i]
			}
			byGroup[g] = append(byGroup[g], l)
		}
	}
	var p50s, p99s []float64
	for _, s := range byGroup {
		q50, q99 := percentile(s, 0.50), percentile(s, 0.99)
		p50s, p99s = append(p50s, float64(q50)), append(p99s, float64(q99))
		samples += len(s)
		beyondP99 += beyond(s, q99)
	}
	return time.Duration(math.Round(geomean(p50s))), time.Duration(math.Round(geomean(p99s))), samples, beyondP99
}

// roundTimes lists each round's wall time, the machine's steal and its used
// CPU time, in seconds.
func roundTimes(rounds []roundStat) [][3]float64 {
	var out [][3]float64
	for _, r := range rounds {
		out = append(out, [3]float64{r.wall.Seconds(), r.host.steal.Seconds(), r.host.used.Seconds()})
	}
	return out
}
