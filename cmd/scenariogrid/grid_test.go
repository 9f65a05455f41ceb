package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"unilog/internal/scenario"
)

// committedGrid is the grid CI's scenario-matrix job runs.
const committedGrid = "../../ci/scenarios/smoke.json"

// TestCommittedGridLoads keeps the committed specs inside tier-1: the
// grid file and every scenario it lists must parse under the current
// schema (both decoders disallow unknown fields), a scenario file
// dropped into the directory but not listed in the grid would never
// run, so that fails too, and so does a fault kind no listed spec
// schedules, which CI's grid would then never exercise. Parse only —
// running the grid stays in CI.
func TestCommittedGridLoads(t *testing.T) {
	g, specs, err := loadGrid(committedGrid)
	if err != nil {
		t.Fatal(err)
	}
	scheduled := map[string]bool{}
	for _, sp := range specs {
		for _, f := range sp.Faults {
			scheduled[f.Kind] = true
		}
	}
	for _, kind := range scenario.FaultKinds {
		if !scheduled[kind] {
			t.Errorf("no scenario %s lists schedules a %s fault", committedGrid, kind)
		}
	}
	listed := map[string]bool{filepath.Base(committedGrid): true}
	for _, rel := range g.Scenarios {
		listed[rel] = true
	}
	entries, err := os.ReadDir(filepath.Dir(committedGrid))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") && !listed[e.Name()] {
			t.Errorf("%s is in %s but %s does not list it", e.Name(), filepath.Dir(committedGrid), committedGrid)
		}
	}
}

// writeGrid lays out a grid directory: one scenario file per entry of
// scenarios (file name → spec JSON) and a grid.json listing them in
// sorted file order under the given configs JSON array.
func writeGrid(t *testing.T, scenarios map[string]string, configs string) string {
	t.Helper()
	dir := t.TempDir()
	files := make([]string, 0, len(scenarios))
	for name, spec := range scenarios {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, name)
	}
	sort.Strings(files)
	list, err := json.Marshal(files)
	if err != nil {
		t.Fatal(err)
	}
	grid := filepath.Join(dir, "grid.json")
	body := fmt.Sprintf(`{"name": "t", "scenarios": %s, "configs": %s}`, list, configs)
	if err := os.WriteFile(grid, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return grid
}

// tinySpec is the smallest runnable scenario; invariants is the JSON
// object of assertions it declares.
func tinySpec(name, invariants string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"total_sessions": 10,
		"regions": ["east"],
		"clients": [{"id": "web", "rate_fraction": 1.0}],
		"invariants": %s
	}`, name, invariants)
}

func TestCollidingCellFilesRejected(t *testing.T) {
	cases := []struct {
		name      string
		scenarios map[string]string
		configs   string
		want      []string // both colliding entries, named in the error
	}{
		{
			name: "two scenario files, one name",
			scenarios: map[string]string{
				"first.json":  tinySpec("same", `{"exactly_once": true}`),
				"second.json": tinySpec("same", `{"exactly_once": true}`),
			},
			configs: `[{"name": "default"}]`,
			want:    []string{"first.json", "second.json", "CELL_same__default__r1.json"},
		},
		{
			name:      "config names equal after sanitizing",
			scenarios: map[string]string{"only.json": tinySpec("only", `{"exactly_once": true}`)},
			configs:   `[{"name": "a b"}, {"name": "a-b"}]`,
			want:      []string{`"a b"`, `"a-b"`, "CELL_only__a-b__r1.json"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			grid := writeGrid(t, tc.scenarios, tc.configs)
			out := filepath.Join(t.TempDir(), "cells")
			err := runGrid(grid, out)
			if err == nil {
				cells, _ := filepath.Glob(filepath.Join(out, "CELL_*.json"))
				t.Fatalf("colliding grid ran; %d cell file(s) for 2 cells: %v", len(cells), cells)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %s", err, w)
				}
			}
			if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
				t.Errorf("grid was rejected but %s exists: something ran first", out)
			}
		})
	}
}

// TestFailedInvariantStillRunsEveryCell pins the gate: a cell whose
// declared invariant fails makes the run fail, naming that cell, but
// only after every cell — including the ones after it — ran and was
// written.
func TestFailedInvariantStillRunsEveryCell(t *testing.T) {
	grid := writeGrid(t, map[string]string{
		"a-fails.json":  tinySpec("fails", `{"min_events": 1000000000}`),
		"b-passes.json": tinySpec("passes", `{"exactly_once": true}`),
	}, `[{"name": "default"}]`)
	out := t.TempDir()
	err := runGrid(grid, out)
	if err == nil {
		t.Fatal("unreachable min_events, yet the grid passed")
	}
	if !strings.Contains(err.Error(), "CELL_fails__default__r1.json") ||
		strings.Contains(err.Error(), "CELL_passes") {
		t.Fatalf("error should name the failed cell and only it: %v", err)
	}
	for _, cell := range []string{"CELL_fails__default__r1.json", "CELL_passes__default__r1.json"} {
		if _, err := os.Stat(filepath.Join(out, cell)); err != nil {
			t.Errorf("cell not written: %v", err)
		}
	}
}
