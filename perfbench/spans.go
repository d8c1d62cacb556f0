package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, made from the benchmark's traced
// run. Spans nest through Parent; the root (ID 0) covers the traced run.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps every span in memory; write stores them when the run ends.
// It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.spans = append(t.spans, span{ID: 0, Parent: -1, Name: "run"})
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) attr(id int, key string, v float64) {
	if t.spans[id].Attrs == nil {
		t.spans[id].Attrs = map[string]float64{}
	}
	t.spans[id].Attrs[key] += v
}

// do runs fn inside a new span under parent; fn receives the span's ID.
func (t *tracer) do(parent int, name string, fn func(id int) error) error {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: t.now()})
	err := fn(id)
	t.spans[id].EndNs = t.now()
	return err
}

// finish closes the root span.
func (t *tracer) finish() { t.spans[0].EndNs = t.now() }

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(t.spans))
	for _, s := range t.spans[1:] {
		kids[s.Parent] = append(kids[s.Parent], s.ID)
	}
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] = t.spans[i].dur() - covered(t.spans, kids[i])
	}
	return self
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span, ids []int) time.Duration {
	iv := make([][2]int64, len(ids))
	for i, id := range ids {
		iv[i] = [2]int64{spans[id].StartNs, spans[id].EndNs}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		if open && v[0] <= curE {
			curE = max(curE, v[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = v[0], v[1], true
	}
	if open {
		total += curE - curS
	}
	return time.Duration(total)
}

// total sums the full duration of every span with the given name.
func (t *tracer) total(name string) (d time.Duration, n int) {
	for i := range t.spans {
		if t.spans[i].Name == name {
			d += t.spans[i].dur()
			n++
		}
	}
	return d, n
}

// durations lists the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].dur())
		}
	}
	return out
}

// attrSum sums one attribute over the spans with the given name.
func (t *tracer) attrSum(name, key string) float64 {
	v := 0.0
	for i := range t.spans {
		if t.spans[i].Name == name {
			v += t.spans[i].Attrs[key]
		}
	}
	return v
}

// unattributed is the traced wall time minus the self time of every layer
// span. Layer spans are named <layer>.<call>; undotted spans ("program",
// "request") only group a layer's calls, so their self time is glue.
func (t *tracer) unattributed() time.Duration {
	layers := time.Duration(0)
	for i, d := range t.selfTimes() {
		if strings.Contains(t.spans[i].Name, ".") {
			layers += d
		}
	}
	return t.spans[0].dur() - layers
}

// write stores the spans, their self times and the host block as JSON.
func (t *tracer) write(path string, host hostBlock) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := t.selfTimes()
	type spanOut struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	doc := struct {
		Host  hostBlock `json:"host"`
		Spans []spanOut `json:"spans"`
	}{Host: host}
	for i, s := range t.spans {
		doc.Spans = append(doc.Spans, spanOut{span: s, SelfNs: int64(self[i])})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
