package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a process of its own — the unit the
// benchmark is defined on: live heap, peak RSS and CPU time are per process —
// copying what it prints to out and returning its parsed result line.
func runChild(o options, out io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-out", o.outDir,
	}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.quick {
		args = append(args, "-quick")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil {
			fmt.Fprintf(out, "%s\n", last)
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if runErr == nil {
		runErr = sc.Err()
	}
	if runErr != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", o.workload, o.seed, runErr)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", o.workload, o.seed, err)
	}
	return res, nil
}

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBounds reads the regression bounds from BENCHMARK.json in the working
// directory (the repository root), the one place they are written down.
func loadBounds() ([]bound, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("-aa runs from the repository root: %w", err)
	}
	var file struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return file.EndToEnd, nil
}

// runAA is the benchmark's check on itself. Every workload runs 2n times on
// the same code, alternating between set A (seeds seed..seed+n-1) and set B
// (the next n seeds); per workload and end-to-end metric it reports both
// sets' medians and quartiles, |A-B|/A against the metric's bound, and the
// quartile spread of all 2n runs as a share of their median. It fails when a
// pair of medians differs by more than the bound, or — setup_s excepted, as
// in the driver's rule — the spread exceeds it.
func runAA(out io.Writer, n int, o options) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs per set")
	}
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# A/A check: %d runs per set, %g s timed per run, seeds %d-%d (A) and %d-%d (B)\n\n",
		n, o.seconds, o.seed, o.seed+uint64(n)-1, o.seed+uint64(n), o.seed+uint64(2*n)-1)
	fmt.Fprintln(out, "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | \\|A-B\\|/A | spread | bound | |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|")
	failures := 0
	for _, w := range workloads() {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				c := o
				c.workload, c.trace = w.name, false
				c.seed = o.seed + uint64(s*n+i)
				res, err := runChild(c, io.Discard)
				if err != nil {
					return err
				}
				for k, m := range res.Metrics {
					sets[s][k] = append(sets[s][k], m.Value)
				}
			}
		}
		for _, b := range bounds {
			a1, am, a3 := quartiles(sets[0][b.Name])
			b1, bm, b3 := quartiles(sets[1][b.Name])
			p1, pm, p3 := quartiles(append(append([]float64(nil), sets[0][b.Name]...), sets[1][b.Name]...))
			diff, spread := math.Abs(am-bm)/am, (p3-p1)/pm
			verdict := "ok"
			if diff > b.Bound {
				verdict = "MEDIANS DIFFER"
				failures++
			} else if spread > b.Bound && b.Name != "setup_s" {
				verdict = "SPREAD"
				failures++
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.name, b.Name, b.Unit, am, a1, a3, bm, b1, b3, 100*diff, 100*spread, 100*b.Bound, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("A/A check: %d metric x workload pairs outside their bound", failures)
	}
	fmt.Fprintln(out, "\nEvery pair of medians and every spread is inside its bound.")
	return nil
}
