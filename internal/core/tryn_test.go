package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"balign/internal/asm"
	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/obs"
	"balign/internal/profile"
)

// allCostModels is one model per cost group.
var allCostModels = []cost.Model{
	cost.FallthroughModel{}, cost.BTFNTModel{}, cost.LikelyModel{},
	cost.PHTModel{}, cost.BTBModel{}, cost.TaggedModel{},
}

// checkTryNMatchesOracle compares, procedure by procedure, the layout and
// forceJump set of the pruned TryN search against the exhaustive oracle.
func checkTryNMatchesOracle(t *testing.T, prog *ir.Program, pf *profile.Profile, opts Options) {
	t.Helper()
	for _, p := range prog.Procs {
		pp, ok := pf.Procs[p.Name]
		if !ok {
			continue
		}
		got, gotForce, err := tryNLayout(p, pp, opts)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		want, wantForce := oracleTryNLayout(p, pp, opts)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: layout %v, exhaustive %v", p.Name, got, want)
		}
		if fmt.Sprint(gotForce) != fmt.Sprint(wantForce) {
			t.Fatalf("%s: forceJump %v, exhaustive %v", p.Name, gotForce, wantForce)
		}
	}
}

// randomWeights replaces a program's profile with random, tie-heavy edge
// weights. Executed programs leave most edges cold or equally hot; random
// weights make every edge a TryN candidate, so windows fill and clusters
// grow to the combination cap. TryN needs no flow conservation.
func randomWeights(prog *ir.Program, seed int64) *profile.Profile {
	rng := rand.New(rand.NewSource(seed))
	pf := profile.New(prog.Name)
	var edges []ir.Edge
	for _, p := range prog.Procs {
		pp := profile.NewProcProfile()
		pp.EntryCount = 1
		for id := range p.Blocks {
			b := ir.BlockID(id)
			edges = p.OutEdges(b, edges[:0])
			for _, e := range edges {
				w := uint64(rng.Intn(8)) * 25
				pp.Edges[profile.Edge{From: e.From, To: e.To}] += w
				if term, ok := p.Blocks[b].Terminator(); ok && term.Kind() == ir.CondBr {
					c := pp.Branches[b]
					if e.Kind == ir.EdgeTaken {
						c.Taken += w
					} else {
						c.Fall += w
					}
					pp.Branches[b] = c
				}
			}
		}
		pf.Procs[p.Name] = pp
	}
	return pf
}

// TestTryNMatchesExhaustive pins the pruned depth-first search, the cost
// tables and the skipped placement-feedback pass to the original odometer
// enumerator: identical layouts and forceJump sets on random programs, both
// executed and randomly weighted, under every cost model, three windows,
// and a combination cap small enough to split clusters.
func TestTryNMatchesExhaustive(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		prog, err := asm.Assemble(genProgramSrc(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		profiles := map[string]*profile.Profile{
			"vm":     profileByVM(t, prog, nil),
			"random": randomWeights(prog, seed),
		}
		for pname, pf := range profiles {
			for _, m := range allCostModels {
				for _, w := range []int{3, 7, 15} {
					for _, mc := range []int{8, DefaultMaxCombos} {
						opts := Options{Algorithm: AlgoTryN, Model: m, Window: w, MaxCombos: mc}
						t.Run(fmt.Sprintf("seed%d/%s/%s/w%d/mc%d", seed, pname, m.Name(), w, mc), func(t *testing.T) {
							checkTryNMatchesOracle(t, prog, pf, opts)
						})
					}
				}
			}
		}
	}
}

// FuzzTryNMatchesExhaustive is the native-fuzzing form of
// TestTryNMatchesExhaustive: the input picks the program, its profile,
// cost model, window and combination cap.
func FuzzTryNMatchesExhaustive(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, seed%3 == 0, uint8(seed), uint8(15), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, random bool, model, window uint8, smallCap bool) {
		prog, err := asm.Assemble(genProgramSrc(seed))
		if err != nil {
			t.Fatalf("seed %d: generator emitted unassemblable program: %v", seed, err)
		}
		pf := randomWeights(prog, seed)
		if !random {
			pf = profileByVM(t, prog, nil)
		}
		opts := Options{
			Algorithm: AlgoTryN,
			Model:     allCostModels[int(model)%len(allCostModels)],
			Window:    1 + int(window)%18,
		}
		if smallCap {
			opts.MaxCombos = 8
		}
		checkTryNMatchesOracle(t, prog, pf, opts)
	})
}

// TestTryNCounters checks the search's obs counters: every model's search
// prices some leaves.
func TestTryNCounters(t *testing.T) {
	prog, err := asm.Assemble(genProgramSrc(3))
	if err != nil {
		t.Fatal(err)
	}
	pf := profileByVM(t, prog, nil)
	for _, m := range allCostModels {
		rec := obs.New("test")
		if _, err := AlignProgram(prog, pf, Options{Algorithm: AlgoTryN, Model: m, Obs: rec}); err != nil {
			t.Fatal(err)
		}
		c := rec.Report().Counters
		if c["core.plan.tryn.leaves"] == 0 {
			t.Errorf("%s: core.plan.tryn.leaves = 0 (pruned %d)", m.Name(), c["core.plan.tryn.pruned"])
		}
	}
}

// TestDirectionSensitive pins the pass-skip predicate to the models: only
// BT/FNT prices a conditional by its taken direction.
func TestDirectionSensitive(t *testing.T) {
	infos := []nodeInfo{
		{valid: true, isCond: true, wT: 7, wF: 3},
		{valid: true, wT: 5},
	}
	for _, m := range allCostModels {
		want := m.Name() == "btfnt"
		if got := directionSensitive(infos, m); got != want {
			t.Errorf("%s: directionSensitive = %v, want %v", m.Name(), got, want)
		}
	}
	// Without a valid conditional nothing is direction-sensitive.
	if directionSensitive(infos[1:], cost.BTFNTModel{}) {
		t.Errorf("single-exit nodes reported direction-sensitive")
	}
}

// TestAlignProgramHonoursContext checks that a done context stops
// alignment with the context's error, both before any procedure and from
// inside a TryN search, and that the chain state a cancelled search
// unwinds leaves nothing behind.
func TestAlignProgramHonoursContext(t *testing.T) {
	prog, err := asm.Assemble(genProgramSrc(5))
	if err != nil {
		t.Fatal(err)
	}
	pf := profileByVM(t, prog, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algorithm{AlgoGreedy, AlgoCost, AlgoTryN, AlgoExtTSP} {
		start := time.Now()
		_, err := AlignProgram(prog, pf, Options{Algorithm: algo, Model: cost.BTFNTModel{}, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", algo, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: cancelled alignment took %v", algo, d)
		}
	}

	// Inside the search: start the step count just short of a poll, so the
	// poll fires at depth 5 of the first descent with links applied above.
	p := prog.Procs[0]
	pp := pf.Procs[p.Name]
	s := newTrySearch(Options{Window: 15, Ctx: ctx})
	s.c = newChains(p)
	s.steps = ctxCheckMask - 5
	infos := buildNodeInfos(p, pp)
	var cluster []*tryNode
	for i := range infos {
		if infos[i].valid && len(cluster) < 15 {
			cluster = append(cluster, makeTryNode(&infos[i], cost.BTFNTModel{}))
		}
	}
	if len(cluster) < 8 {
		t.Fatalf("fixture has %d alignable nodes, want at least 8", len(cluster))
	}
	err = s.commitBest(cluster, map[ir.BlockID]bool{}, cost.BTFNTModel{}, DefaultMaxCombos)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("commitBest err = %v, want context.Canceled", err)
	}
	if s.leaves != 0 {
		t.Errorf("cancelled search priced %d leaves before stopping", s.leaves)
	}
	fresh := newChains(p)
	if !slices.Equal(s.c.next, fresh.next) || !slices.Equal(s.c.prev, fresh.prev) ||
		!slices.Equal(s.c.parent, fresh.parent) || !slices.Equal(s.c.size, fresh.size) {
		t.Errorf("cancelled search left tentative links behind")
	}
}
