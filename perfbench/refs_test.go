package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"balign/internal/experiments"
	"balign/internal/metrics"
	"balign/internal/predict"
	"balign/internal/serve"
)

// flipped returns b with its middle byte changed.
func flipped(b []byte) []byte {
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 1
	return c
}

func TestGateRejectsOneFlippedByteOfASuiteOutput(t *testing.T) {
	rows, err := experiments.Summaries(experiments.Config{Scale: simScale, Parallelism: 1,
		Programs: []string{"alvinn"}}, predict.AllArchs())
	if err != nil {
		t.Fatal(err)
	}
	out := []byte(metrics.EncodeSummaries(rows))
	g, err := newGate(false)
	if err != nil {
		t.Fatal(err)
	}
	if !g.match("suite-sim/alvinn", digest(out)) {
		t.Fatalf("in-process suite output does not match its reference: %v", g.failures)
	}
	if g.match("suite-sim/alvinn", digest(flipped(out))) || len(g.failures) != 1 {
		t.Fatalf("a flipped byte passed the gate")
	}
}

func TestGateRejectsOneFlippedByteOfAResponse(t *testing.T) {
	bodies, err := servePool(1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, alignPath, bytes.NewReader(bodies[0].Body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	g, err := newGate(false)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	good := reply{status: http.StatusOK, body: rec.Body.Bytes(), cache: "miss"}
	tl.add(g, bodies[0], good)
	bad := good
	bad.body = flipped(good.body)
	tl.add(g, bodies[0], bad)
	if tl.ok != 1 || tl.failed != 1 || len(g.failures) != 1 {
		t.Fatalf("ok %d failed %d failures %v; want the flipped response alone to fail", tl.ok, tl.failed, g.failures)
	}
}

func TestCPITry15ParsesTry15Cells(t *testing.T) {
	rows := []byte("p a try15 instrs=1 cpi=1.000000000\np a orig instrs=1 cpi=9.000000000\np b try15 cpi=4.000000000\n")
	got, err := cpiTry15(rows)
	if err != nil || got != 2 {
		t.Fatalf("cpiTry15 = %v, %v; want 2", got, err)
	}
	if _, err := cpiTry15([]byte("p a orig cpi=1\n")); err == nil {
		t.Fatalf("no try15 cells must be an error")
	}
}
