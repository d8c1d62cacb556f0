package main

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, err := servePool(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := servePool(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID != b[i].ID || !bytes.Equal(a[i].Body, b[i].Body) || a[i].Instrs != b[i].Instrs {
			t.Fatalf("body %d differs between two generations", i)
		}
	}
	keys := map[string]bool{}
	for _, x := range a {
		if keys[string(x.Body)] {
			t.Fatalf("body %s repeats an earlier one; serve-cold would hit the cache", x.ID)
		}
		keys[string(x.Body)] = true
	}

	for _, seed := range []int64{1, 2, 99} {
		for round := 0; round < 3; round++ {
			if !reflect.DeepEqual(suiteOrder(alignPrograms, seed, round), suiteOrder(alignPrograms, seed, round)) ||
				!reflect.DeepEqual(coldOrder(seed, round), coldOrder(seed, round)) ||
				!reflect.DeepEqual(hotPicks(seed, round, 100), hotPicks(seed, round, 100)) {
				t.Fatalf("seed %d round %d: inputs differ between two generations", seed, round)
			}
		}
	}
}

func TestSeedsOrderTheSameWork(t *testing.T) {
	a, b := coldOrder(1, 0), coldOrder(2, 0)
	if reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 1 and 2 send the cold pool in the same order")
	}
	sa, sb := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(sa)
	sort.Ints(sb)
	for i := range sa {
		if sa[i] != i || sb[i] != i {
			t.Fatalf("a cold round must send every pool body exactly once")
		}
	}
	got := suiteOrder(simPrograms, 7, 1)
	sorted := append([]string(nil), got...)
	sort.Strings(sorted)
	want := append([]string(nil), simPrograms...)
	sort.Strings(want)
	if !reflect.DeepEqual(sorted, want) {
		t.Fatalf("suite order %v is not a permutation of %v", got, simPrograms)
	}
	for _, p := range hotPicks(3, 0, 1000) {
		if p < 0 || p >= hotCorpus {
			t.Fatalf("hot pick %d outside the corpus", p)
		}
	}
}
