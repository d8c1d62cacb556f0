package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/icache"
	"balign/internal/ir"
	"balign/internal/kernel"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/sim"
	"balign/internal/trace"
	"balign/internal/workload"
)

// minRounds is the fewest rounds a run measures, however long they take,
// so every median has a middle.
const minRounds = 3

// A suite run times set-up in setupBatches batches, each of which builds
// the workloads over and over for at least setupBatchTime: a build takes
// 0.5-25 ms, shorter than the 10 ms ticks host steal is counted in.
const (
	setupBatches   = 9
	setupBatchTime = 100 * time.Millisecond
)

// suiteOp is one `baexp suite` invocation over one program.
type suiteOp struct {
	wall, cpu time.Duration
	host      cpuTimes // the machine's CPU time while it ran
	rssMB     float64
	nivcsw    int64
	rows      []byte // the EncodeSummaries output
}

// runBaexp evaluates one program with the serial engine, as a user runs the
// paper's evaluation.
func runBaexp(e *env, program string, scale float64) (suiteOp, error) {
	cmd := exec.Command(filepath.Join(e.bin, "baexp"),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"-parallel", "1", "-programs", program, "suite")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	host0, start := hostCPU(), time.Now()
	if err := cmd.Run(); err != nil {
		return suiteOp{}, fmt.Errorf("baexp suite %s: %v: %s", program, err, stderr.String())
	}
	op := suiteOp{wall: time.Since(start), host: hostCPU().sub(host0)}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	op.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	op.rssMB = float64(ru.Maxrss) / 1024
	op.nivcsw = ru.Nivcsw
	// Drop the "== Suite ... ==" heading and the blank line baexp prints
	// after each experiment; what remains is metrics.EncodeSummaries.
	out := stdout.Bytes()
	if i := bytes.IndexByte(out, '\n'); i >= 0 && bytes.HasPrefix(out, []byte("== ")) {
		out = out[i+1:]
	}
	op.rows = bytes.TrimSuffix(out, []byte("\n"))
	return op, nil
}

// cpiTry15 is the geometric mean of the relative CPI of every try15 cell
// in EncodeSummaries rows ("<program> <arch> <algo> ... cpi=<v> ...").
func cpiTry15(rows []byte) (float64, error) {
	var cpis []float64
	for _, line := range strings.Split(string(rows), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[2] != "try15" {
			continue
		}
		for _, kv := range f[3:] {
			if v, ok := strings.CutPrefix(kv, "cpi="); ok {
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return 0, fmt.Errorf("bad cpi in %q", line)
				}
				cpis = append(cpis, x)
			}
		}
	}
	if len(cpis) == 0 {
		return 0, fmt.Errorf("no try15 cells in the suite output")
	}
	return geomean(cpis), nil
}

// suiteRound runs every program once in the round's order and checks each
// output, then the whole grid in canonical order.
func suiteRound(e *env, name string, programs []string, scale float64, round int) (roundStat, float64, error) {
	var rs roundStat
	rows := map[string][]byte{}
	for _, p := range suiteOrder(programs, e.seed, round) {
		op, err := runBaexp(e, p, scale)
		if err != nil {
			return rs, 0, err
		}
		rs.wall += op.wall
		rs.host.used += op.host.used
		rs.host.steal += op.host.steal
		rs.cpu += op.cpu
		rs.rssMB = max(rs.rssMB, op.rssMB)
		rs.ops++
		rs.nivcsw += op.nivcsw
		rs.lats = append(rs.lats, unstolen(op.wall, op.host))
		rs.groups = append(rs.groups, p)
		if !e.gate.match(name+"/"+p, digest(op.rows)) {
			rs.failed++
		}
		rows[p] = op.rows
	}
	var grid []byte
	for _, p := range programs {
		grid = append(grid, rows[p]...)
	}
	e.gate.match(name, digest(grid))
	cpi, err := cpiTry15(grid)
	if err != nil {
		return rs, 0, err
	}
	e.gate.match(name+"/cpi_try15", strconv.FormatFloat(cpi, 'f', 9, 64))
	return rs, cpi, nil
}

// buildWorkloads is a suite's set-up: constructing every program of it.
func buildWorkloads(programs []string, scale float64) error {
	for _, p := range programs {
		if _, err := workload.ByName(p, workload.Config{Scale: scale}); err != nil {
			return err
		}
	}
	return nil
}

func runSuite(e *env, name string, programs []string, scale float64) (*outcome, error) {
	if e.traced {
		return traceSuite(e, name, programs, scale)
	}
	var setups []time.Duration
	for i := 0; i < setupBatches; i++ {
		runtime.GC() // each batch starts from a collected heap
		host0, start := hostCPU(), time.Now()
		n := 0
		for ; n == 0 || time.Since(start) < setupBatchTime; n++ {
			if err := buildWorkloads(programs, scale); err != nil {
				return nil, err
			}
		}
		setups = append(setups, unstolen(time.Since(start), hostCPU().sub(host0))/time.Duration(n))
	}

	var rounds []roundStat
	var cpi float64
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < e.seconds; r++ {
		rs, c, err := suiteRound(e, name, programs, scale, r)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rs)
		cpi = c
	}
	failed, nivcsw := totals(rounds)
	attempted := len(rounds) * len(programs)
	m, info := endToEnd(rounds, setups, attempted, failed, cpi)
	return &outcome{attempted: attempted, failed: failed, metrics: m, nivcsw: nivcsw, info: info}, nil
}

// variantSpec is one aligned version of a program and the architectures
// whose cells replay it, grouped as the experiment grid groups them.
type variantSpec struct {
	key   string
	algo  core.Algorithm
	order core.ChainOrder
	model cost.Model
	archs []predict.ArchID
}

// gridVariants lists the variants `baexp suite` evaluates for each program:
// orig, greedy (btfnt order for BT/FNT), one cost and one try15 layout per
// cost group, and exttsp.
func gridVariants() ([]*variantSpec, error) {
	var out []*variantSpec
	byKey := map[string]*variantSpec{}
	for _, arch := range predict.AllArchs() {
		d, ok := predict.Lookup(arch)
		if !ok {
			return nil, fmt.Errorf("unregistered architecture %q", arch)
		}
		order := core.OrderHottest
		greedyKey := "greedy"
		if arch == predict.ArchBTFNT {
			order, greedyKey = core.OrderBTFNT, "greedy-btfnt"
		}
		model, err := cost.ForArch(arch)
		if err != nil {
			return nil, err
		}
		group := string(d.CostGroup)
		for _, v := range []variantSpec{
			{key: "orig", algo: core.AlgoOriginal},
			{key: greedyKey, algo: core.AlgoGreedy, order: order},
			{key: "cost-" + group, algo: core.AlgoCost, order: order, model: model},
			{key: "try-" + group, algo: core.AlgoTryN, order: order, model: model},
			{key: "exttsp", algo: core.AlgoExtTSP},
		} {
			if byKey[v.key] == nil {
				byKey[v.key] = &v
				out = append(out, &v)
			}
			byKey[v.key].archs = append(byKey[v.key].archs, arch)
		}
	}
	return out, nil
}

// traceSuite times one untraced round, then repeats the round's work
// in-process with a span around every call into a layer.
func traceSuite(e *env, name string, programs []string, scale float64) (*outcome, error) {
	plain, _, err := suiteRound(e, name, programs, scale, 0)
	if err != nil {
		return nil, err
	}
	variants, err := gridVariants()
	if err != nil {
		return nil, err
	}
	t := newTracer()
	for _, p := range suiteOrder(programs, e.seed, 0) {
		if err := t.do(0, "program", func(id int) error { return traceProgram(t, id, p, scale, variants) }); err != nil {
			return nil, err
		}
	}
	t.finish()
	m := layerMetrics(t)
	m["trace_overhead_s"] = metric{(t.spans[0].dur() - plain.wall).Seconds(), "s"}
	info := map[string]any{"untraced_wall_s": plain.wall.Seconds(), "traced_wall_s": t.spans[0].dur().Seconds()}
	return &outcome{attempted: len(programs), failed: plain.failed, metrics: m, nivcsw: plain.nivcsw, info: info, trace: t}, nil
}

// traceProgram is one program's evaluation, call by call: build, profile,
// align every variant, then per variant compile its layout, generate its
// trace once, replay it through the i-cache model and every architecture's
// kernel, and finally run the streamed broadcast the suite itself uses.
func traceProgram(t *tracer, parent int, program string, scale float64, variants []*variantSpec) error {
	var w *workload.Workload
	if err := t.do(parent, "workload.build", func(int) error {
		var err error
		w, err = workload.ByName(program, workload.Config{Scale: scale})
		return err
	}); err != nil {
		return err
	}
	var pf *profile.Profile
	if err := t.do(parent, "workload.profile", func(int) error {
		var err error
		pf, _, err = w.CollectProfile()
		return err
	}); err != nil {
		return err
	}

	type aligned struct {
		prog *ir.Program
		prof *profile.Profile
	}
	layouts := make([]aligned, len(variants))
	for i, v := range variants {
		if v.algo == core.AlgoOriginal {
			layouts[i] = aligned{w.Prog, pf}
			continue
		}
		res, err := alignSpan(t, parent, w.Prog, pf, core.Options{Algorithm: v.algo, Model: v.model, Order: v.order})
		if err != nil {
			return fmt.Errorf("%s %s: %w", program, v.key, err)
		}
		layouts[i] = aligned{res.Prog, res.Prof}
	}

	exec, err := sim.NewExecutor(string(sim.KernelFlat), nil)
	if err != nil {
		return err
	}
	str := sim.NewStreamer(0, 0, nil)
	for i, v := range variants {
		a := layouts[i]
		var lay *trace.Layout
		if err := t.do(parent, "trace.layout", func(int) error {
			var err error
			lay, err = trace.CompileLayout(a.prog)
			return err
		}); err != nil {
			return err
		}
		var batches []*trace.Batch
		err = t.do(parent, "trace.gen", func(id int) error {
			src, err := w.Stream(a.prog, a.prof, lay, 0)
			if err != nil {
				return err
			}
			defer src.Close()
			for {
				b := &trace.Batch{}
				ok, err := src.Fill(b)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				batches = append(batches, b)
				t.attr(id, "events", float64(b.Len()))
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s %s: %w", program, v.key, err)
		}
		err = t.do(parent, "icache.replay", func(id int) error {
			ic := icache.New(icache.DefaultConfig())
			for _, b := range batches {
				if err := lay.Decode(b, ic.Event); err != nil {
					return err
				}
			}
			t.attr(id, "fetches", float64(ic.Fetches))
			return nil
		})
		if err != nil {
			return err
		}
		for _, arch := range v.archs {
			var k *kernel.Kernel
			if err := t.do(parent, "kernel.compile", func(int) error {
				var err error
				k, err = kernel.CompileArch(lay, a.prog, a.prof, arch, nil)
				return err
			}); err != nil {
				return fmt.Errorf("%s %s: %w", program, v.key, err)
			}
			if err := t.do(parent, "kernel.run", func(id int) error {
				for _, b := range batches {
					if err := k.RunBatch(b); err != nil {
						return err
					}
					t.attr(id, "events", float64(b.Len()))
				}
				return nil
			}); err != nil {
				return fmt.Errorf("%s %s %s: %w", program, v.key, arch, err)
			}
		}
		err = t.do(parent, "sim.stream", func(int) error {
			src, err := w.Stream(a.prog, a.prof, lay, str.BatchCap())
			if err != nil {
				return err
			}
			_, err = exec.SimulateStream(context.Background(), str, lay, src, a.prog, a.prof, v.archs)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s %s: %w", program, v.key, err)
		}
	}
	return nil
}

// alignSpan plans one layout inside a core.<algorithm> span, recording the
// bytes the call allocated.
func alignSpan(t *tracer, parent int, prog *ir.Program, pf *profile.Profile, opts core.Options) (*core.Result, error) {
	var res *core.Result
	err := t.do(parent, "core."+string(opts.Algorithm), func(id int) error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		res, err = core.AlignProgram(prog, pf, opts)
		runtime.ReadMemStats(&after)
		t.attr(id, "alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
		return err
	})
	return res, err
}
