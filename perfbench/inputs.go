package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"balign/internal/workload"
)

// The suite workloads run `baexp suite` with the serial engine, one
// invocation per program. Each program set is fixed; the seed only orders
// it, so every run does the same work and its outputs have one reference.
// Each set has an odd number of programs, so the median invocation time
// falls inside one program's samples, not on the edge between two.
var (
	// alignPrograms are synthetic SPECfp programs whose hot regions give
	// TryN large clusters: Try15 planning is over 90% of their suite time.
	// su2cor, ora, nasa7, spice and hydro2d are just as TryN-bound but take
	// 4-8 s each, which leaves no room for repeated rounds inside one run.
	alignPrograms = []string{"doduc", "fpppp", "mdljsp2"}
	// simPrograms have tiny CFGs, so TryN is bypassed and the trace
	// generator, the simulation kernel and the i-cache model dominate.
	// VM kernels ignore the trace scale; li keeps a little TryN work in
	// the set so a TryN change has something it could move.
	simPrograms = []string{"alvinn", "compress", "eqntott", "sc", "li"}
)

const (
	alignScale = 0.1
	simScale   = 1.0
	// serveScale sizes the training run behind each served profile; the
	// alignment work depends on the CFG, not on the trace length.
	serveScale = 0.02
)

// servePrograms are the synthetic programs whose CFG changes with the
// workload seed, so each (program, seed) pair is a distinct request body.
// VM kernels (compress, li, ...) produce the same body for every seed and
// would hit the cache. Both are mid-size: cold latency 4-300 ms.
var servePrograms = []string{"db++", "swm256"}

const (
	// coldPool is the number of distinct align bodies serve-cold sends to
	// each fresh daemon.
	coldPool = 192
	// hotCorpus is the number of distinct bodies serve-hot repeats.
	hotCorpus = 16
)

// alignBody is one /v1/align request: a suite program's assembly and
// training-run edge profile.
type alignBody struct {
	// ID names the body in the reference table ("db++/7").
	ID   string
	Body []byte
	// Instrs is the training run's dynamic instruction count, the base of
	// the relative CPI the response implies.
	Instrs uint64
}

// servePool builds the first n bodies of the serve request pool: entry i is
// servePrograms[i%len] generated with workload seed 1+i/len.
func servePool(n int) ([]alignBody, error) {
	out := make([]alignBody, n)
	for i := range out {
		prog := servePrograms[i%len(servePrograms)]
		seed := int64(1 + i/len(servePrograms))
		b, err := makeAlignBody(prog, seed)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func makeAlignBody(prog string, seed int64) (alignBody, error) {
	w, err := workload.ByName(prog, workload.Config{Scale: serveScale, Seed: seed})
	if err != nil {
		return alignBody{}, err
	}
	pf, instrs, err := w.CollectProfile()
	if err != nil {
		return alignBody{}, fmt.Errorf("profiling %s seed %d: %w", prog, seed, err)
	}
	var prof bytes.Buffer
	if _, err := pf.WriteTo(&prof); err != nil {
		return alignBody{}, err
	}
	body, err := json.Marshal(map[string]string{"asm": w.Prog.Format(), "profile": prof.String()})
	if err != nil {
		return alignBody{}, err
	}
	return alignBody{ID: fmt.Sprintf("%s/%d", prog, seed), Body: body, Instrs: instrs}, nil
}

// splitmix64 is the stateless mixer behind every seeded choice here, so
// the inputs of a seed do not depend on any library's generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// permutation returns a Fisher-Yates shuffle of 0..n-1 drawn from
// (seed, stream).
func permutation(seed int64, stream uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	state := splitmix64(uint64(seed)) ^ splitmix64(stream+0x5851f42d4c957f2d)
	for i := n - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// suiteOrder is the program order of one suite round.
func suiteOrder(programs []string, seed int64, round int) []string {
	out := make([]string, len(programs))
	for i, j := range permutation(seed, uint64(round), len(programs)) {
		out[i] = programs[j]
	}
	return out
}

// coldOrder is the order in which serve-cold sends its pool to the daemon
// of one round.
func coldOrder(seed int64, round int) []int {
	return permutation(seed, 1<<32+uint64(round), coldPool)
}

// hotPicks is the request sequence of one serve-hot round: n draws from
// the hot corpus.
func hotPicks(seed int64, round, n int) []int {
	out := make([]int, n)
	state := splitmix64(uint64(seed)) ^ splitmix64(2<<32+uint64(round))
	for i := range out {
		state = splitmix64(state)
		out[i] = int(state % hotCorpus)
	}
	return out
}
