package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// refsJSON holds the reference outputs recorded with -record: the sha256 of
// every output the benchmark checks and each workload's cpi_try15, keyed
//
//	<workload>                 whole EncodeSummaries output, canonical order
//	<workload>/<program>       one program's EncodeSummaries rows
//	<workload>/cpi_try15       the exact cpi_try15 value (%.9f)
//	align/<program>/<seed>     one /v1/align response body
//
//go:embed refs.json
var refsJSON []byte

// gate compares outputs against the references. In record mode it keeps
// what it sees instead, and never fails.
type gate struct {
	refs     map[string]string
	recorded map[string]string // nil unless recording
	failures []string
}

func newGate(record bool) (*gate, error) {
	g := &gate{refs: map[string]string{}}
	if record {
		g.recorded = map[string]string{}
	}
	if err := json.Unmarshal(refsJSON, &g.refs); err != nil {
		return nil, fmt.Errorf("reading embedded references: %w", err)
	}
	return g, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// match reports whether got is the reference value for key, recording a
// failure if not.
func (g *gate) match(key, got string) bool {
	if g.recorded != nil {
		g.recorded[key] = got
		return true
	}
	want, ok := g.refs[key]
	switch {
	case !ok:
		g.failures = append(g.failures, fmt.Sprintf("%s: no reference recorded", key))
	case want != got:
		g.failures = append(g.failures, fmt.Sprintf("%s: got %s, want %s", key, got, want))
	default:
		return true
	}
	return false
}

// write merges the recorded values into the JSON object at path (created
// if missing), so recording each workload into one file accumulates them.
func (g *gate) write(path string) error {
	merged := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &merged); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	for k, v := range g.recorded {
		merged[k] = v
	}
	out, err := json.MarshalIndent(merged, "", "  ") // map keys marshal sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
