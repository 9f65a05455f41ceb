package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"unilog/internal/scenario"
)

// gridSpec is the grid file's shape: a (scenario × config) matrix with
// repeats. Scenario paths are relative to the grid file, so a grid and
// its scenarios travel together as a directory.
type gridSpec struct {
	Name    string `json:"name"`
	Repeats int    `json:"repeats,omitempty"`
	// OutputDir receives one CELL_*.json per (scenario, config, repeat);
	// the -out flag overrides it.
	OutputDir string               `json:"output_dir,omitempty"`
	Scenarios []string             `json:"scenarios"`
	Configs   []scenario.RunConfig `json:"configs,omitempty"`
}

// loadGrid parses the grid file and every scenario it lists, filling in
// the defaults (one repeat, one "default" config). It rejects a grid in
// which two cells would write the same CELL_*.json: cell files are named
// from the sanitized scenario and config names, so two scenario files
// carrying one "name", or configs "a b" and "a-b", would otherwise
// overwrite each other and the artifact would show fewer cells than ran.
func loadGrid(gridPath string) (*gridSpec, []*scenario.Spec, error) {
	data, err := os.ReadFile(gridPath)
	if err != nil {
		return nil, nil, err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var g gridSpec
	if err := dec.Decode(&g); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", gridPath, err)
	}
	if len(g.Scenarios) == 0 {
		return nil, nil, fmt.Errorf("%s: no scenarios", gridPath)
	}
	if g.Repeats <= 0 {
		g.Repeats = 1
	}
	if len(g.Configs) == 0 {
		g.Configs = []scenario.RunConfig{{Name: "default"}}
	}
	baseDir := filepath.Dir(gridPath)

	specs := make([]*scenario.Spec, len(g.Scenarios))
	writers := map[string]string{} // cell file → the (scenario file × config) that writes it
	for i, rel := range g.Scenarios {
		p := rel
		if !filepath.IsAbs(p) {
			p = filepath.Join(baseDir, p)
		}
		sp, err := scenario.Load(p)
		if err != nil {
			return nil, nil, err
		}
		specs[i] = sp
		for _, rc := range g.Configs {
			file := cellName(sp.Name, rc.Name, 1)
			cell := fmt.Sprintf("%s (name %q) × config %q", rel, sp.Name, rc.Name)
			if prev, ok := writers[file]; ok {
				return nil, nil, fmt.Errorf("%s: cells %s and %s would both write %s",
					gridPath, prev, cell, file)
			}
			writers[file] = cell
		}
	}
	return &g, specs, nil
}

// runGrid executes every cell of the grid and writes one machine-readable
// JSON per cell. A cell that finishes with a failed invariant does not
// stop the grid: every cell still runs and is written, and the error
// returned at the end names each failed cell, so CI sees the whole
// matrix. A cell that fails to run at all (scenario.Run returns an
// error) aborts on the spot — that is an infrastructure failure with no
// Result to write.
func runGrid(gridPath, outOverride string) error {
	g, specs, err := loadGrid(gridPath)
	if err != nil {
		return err
	}
	outDir := g.OutputDir
	if outOverride != "" {
		outDir = outOverride
	}
	if outDir == "" {
		outDir = "grid_out"
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	fmt.Printf("# Experiment grid %s — %d scenarios × %d configs × %d repeats\n\n",
		g.Name, len(specs), len(g.Configs), g.Repeats)
	fmt.Printf("  %-20s %-12s %3s %9s %7s %9s %6s  %s\n",
		"scenario", "config", "rep", "events", "crowd", "warehouse", "spill", "verdict")

	var failed []string
	for _, sp := range specs {
		for _, rc := range g.Configs {
			for rep := 1; rep <= g.Repeats; rep++ {
				// Each repeat perturbs the seed so repeats sample run-to-run
				// variance instead of replaying the identical stream.
				cell := *sp
				cell.Seed += int64(rep - 1)
				res, err := scenario.Run(&cell, rc)
				if err != nil {
					return fmt.Errorf("cell %s/%s r%d: %w", sp.Name, rc.Name, rep, err)
				}
				res.Repeat = rep
				name := cellName(sp.Name, rc.Name, rep)
				if err := writeCell(filepath.Join(outDir, name), res); err != nil {
					return err
				}
				verdict := "ok"
				if !res.OK {
					verdict = "FAILED: " + failedInvariants(res)
					failed = append(failed, fmt.Sprintf("%s (%s)", name, failedInvariants(res)))
				}
				fmt.Printf("  %-20s %-12s %3d %9d %7d %9d %6d  %s\n",
					sp.Name, rc.Name, rep, res.Events, res.CrowdEvents,
					res.InWarehouse, res.SpillRuns, verdict)
			}
		}
	}
	fmt.Printf("\ncells written to %s/\n", outDir)
	if len(failed) > 0 {
		return fmt.Errorf("%d cell(s) failed invariants: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}

// cellName builds the per-cell filename: CELL_<scenario>__<config>__r<rep>.json.
func cellName(scenarioName, configName string, rep int) string {
	return fmt.Sprintf("CELL_%s__%s__r%d.json", sanitize(scenarioName), sanitize(configName), rep)
}

// sanitize keeps cell filenames shell- and artifact-safe.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, s)
}

func writeCell(path string, res *scenario.Result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func failedInvariants(res *scenario.Result) string {
	var names []string
	for _, c := range res.Invariants {
		if !c.OK {
			names = append(names, c.Name+" ("+c.Detail+")")
		}
	}
	return strings.Join(names, ", ")
}
