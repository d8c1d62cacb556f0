package main

import (
	"testing"
	"time"
)

func TestSelfTimeAndUnattributed(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "run", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "program", StartNs: 10, EndNs: 90},
		{ID: 2, Parent: 1, Name: "core.tryn", StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 1, Name: "kernel.run", StartNs: 40, EndNs: 70}, // overlaps core.tryn
		{ID: 4, Parent: 3, Name: "kernel.compile", StartNs: 40, EndNs: 45},
	}}
	want := []time.Duration{20, 20, 40, 25, 5}
	for i, got := range tr.selfTimes() {
		if got != want[i] {
			t.Errorf("span %s self %d, want %d", tr.spans[i].Name, got, want[i])
		}
	}
	// Layer spans (dotted names) cover 40+25+5 = 70 of the run's 100;
	// the rest, including the undotted "program" span's 20, is glue.
	if got := tr.unattributed(); got != 30 {
		t.Errorf("unattributed %d, want 30", got)
	}
	if d, n := tr.total("core.tryn"); d != 40 || n != 1 {
		t.Errorf("total core.tryn = %d over %d spans", d, n)
	}
}
