package main

import (
	"testing"
	"time"

	"balign/internal/load"
)

func TestPercentileIsAMeasuredSample(t *testing.T) {
	// 1,015,807 ns is the upper edge of one of internal/load.Hist's log
	// buckets and 1,048,576 ns the lower edge of the next, whose upper edge
	// is 1,114,111 ns.
	var samples []time.Duration
	for i := 0; i < 50; i++ {
		samples = append(samples, 1_015_807)
	}
	for i := 0; i < 49; i++ {
		samples = append(samples, 1_048_576)
	}
	samples = append(samples, 3_000_000)

	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0.01, 1_015_807},
		{0.50, 1_015_807},
		{0.51, 1_048_576},
		{0.99, 1_048_576},
		{1.00, 3_000_000},
	}
	for _, c := range cases {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p*100, got, c.want)
		}
	}

	// The histogram reports the bucket bound instead of the sample.
	var h load.Hist
	for _, s := range samples {
		h.Observe(s)
	}
	if got := h.QuantileNs(99, 100); got != 1_114_111 {
		t.Fatalf("Hist p99 = %d; the bucket edge this test is built around moved", got)
	}
	if beyond(samples, percentile(samples, 0.99)) != 1 {
		t.Errorf("beyond(p99) = %d, want 1", beyond(samples, percentile(samples, 0.99)))
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	samples := []time.Duration{5, 1, 4, 2, 3}
	if got := percentile(samples, 0.5); got != 3 {
		t.Errorf("p50 = %d, want 3", got)
	}
	if samples[0] != 5 {
		t.Errorf("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := geomean([]float64{1, 4}); got != 2 {
		t.Errorf("geomean = %v", got)
	}
}

func TestQuietRoundsRanksByStealShare(t *testing.T) {
	rounds := []roundStat{
		{wall: 4 * time.Second, host: cpuTimes{steal: 2 * time.Second}}, // share 0.5
		{wall: 2 * time.Second, host: cpuTimes{steal: 0}},               // share 0
		{wall: 8 * time.Second, host: cpuTimes{steal: 2 * time.Second}}, // share 0.25
		{wall: 1 * time.Second, host: cpuTimes{steal: time.Second}},     // share 1
		{wall: 3 * time.Second, host: cpuTimes{steal: time.Second / 2}}, // share 0.17
	}
	got := quietRounds(rounds)
	want := []time.Duration{2 * time.Second, 3 * time.Second, 8 * time.Second, 4 * time.Second}
	if len(got) != len(want) {
		t.Fatalf("kept %d rounds, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].wall != want[i] {
			t.Errorf("round %d: wall %v, want %v", i, got[i].wall, want[i])
		}
	}
}

func TestGroupPercentilesStayWithinEachKind(t *testing.T) {
	// Two kinds whose latencies interleave differently from round to
	// round: the overall median would jump between them, the per-kind
	// medians do not.
	rounds := []roundStat{
		{lats: []time.Duration{100, 400}, groups: []string{"a", "b"}},
		{lats: []time.Duration{200, 800}, groups: []string{"a", "b"}},
		{lats: []time.Duration{100, 400}, groups: []string{"a", "b"}},
	}
	p50, p99, n, over := groupPercentiles(rounds)
	if p50 != 200 || p99 != 400 || n != 6 || over != 0 {
		t.Errorf("got p50 %d p99 %d samples %d beyond %d, want 200 400 6 0", p50, p99, n, over)
	}
	one := []roundStat{{lats: []time.Duration{5, 1, 4, 2, 3}}}
	if p50, _, _, _ := groupPercentiles(one); p50 != 3 {
		t.Errorf("one kind: p50 %d, want 3", p50)
	}
}

func TestUnstolenScalesByDeliveredShare(t *testing.T) {
	if got := unstolen(4*time.Second, cpuTimes{used: 3 * time.Second, steal: time.Second}); got != 3*time.Second {
		t.Errorf("unstolen = %v, want 3s", got)
	}
	if got := unstolen(4*time.Second, cpuTimes{used: 3 * time.Second}); got != 4*time.Second {
		t.Errorf("no steal: unstolen = %v, want 4s", got)
	}
}
