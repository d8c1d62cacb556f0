package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestClosedLoopSendsEachRequestOnceInOrderSlots(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen[string(b)]++
		mu.Unlock()
		w.Write(b)
	}))
	defer srv.Close()

	bodies := []alignBody{{ID: "a", Body: []byte("a")}, {ID: "b", Body: []byte("b")}, {ID: "c", Body: []byte("c")}}
	order := []int{0, 1, 2, 2, 1, 0, 0, 2, 1, 0}
	c := newClient()
	defer c.CloseIdleConnections()
	replies, wall := closedLoop(c, 2, func(int) string { return srv.URL }, bodies, order)
	if wall <= 0 {
		t.Errorf("wall %v", wall)
	}
	for i, r := range replies {
		if r.err != nil || r.status != http.StatusOK || string(r.body) != string(bodies[order[i]].Body) {
			t.Fatalf("reply %d: %v %d %q, want %q", i, r.err, r.status, r.body, bodies[order[i]].Body)
		}
	}
	if seen["a"] != 4 || seen["b"] != 3 || seen["c"] != 3 {
		t.Fatalf("server saw %v, want a:4 b:3 c:3", seen)
	}
}

func TestUnstolenLatsCorrectsEachWindowByItsOwnSteal(t *testing.T) {
	ms := time.Millisecond
	replies := []reply{
		// first window: 200 ms of CPU time, half of it stolen
		{lat: 10 * ms, host: cpuTimes{used: 50 * ms, steal: 50 * ms}},
		{lat: 20 * ms, host: cpuTimes{used: 50 * ms, steal: 50 * ms}},
		// second window: nothing stolen
		{lat: 10 * ms, host: cpuTimes{used: 150 * ms}},
		{lat: 30 * ms, host: cpuTimes{used: 100 * ms}},
		// last, short window: a quarter stolen
		{lat: 8 * ms, host: cpuTimes{used: 30 * ms, steal: 10 * ms}},
	}
	want := []time.Duration{5 * ms, 10 * ms, 10 * ms, 30 * ms, 6 * ms}
	got := unstolenLats(replies)
	if len(got) != len(want) {
		t.Fatalf("got %d latencies, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("latency %d = %v, want %v", i, got[i], want[i])
		}
	}
}
