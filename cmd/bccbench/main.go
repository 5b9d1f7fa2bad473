// Command bccbench regenerates the paper's tables and figures.
//
// Usage:
//
//	bccbench -exp all                  # every artifact, default sizes
//	bccbench -exp fig4 -full           # paper-size data (p=8000)
//	bccbench -exp fig5 -trials 5000
//	bccbench -exp fig2 -csv out/       # also write CSV files
//	bccbench -list                     # every experiment id
//
// `bccbench -exp all -seed 1` is pinned byte for byte by
// testdata/exp_all_seed1.golden. Performance is measured by the bench
// harness instead (`go run ./bench`, see bench/README.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"bcc/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id or 'all'")
		seed    = flag.Uint64("seed", 1, "random seed")
		trials  = flag.Int("trials", 0, "Monte-Carlo trials (0 = per-experiment default)")
		iters   = flag.Int("iters", 0, "training iterations for fig4/tables (0 = 100, as in the paper)")
		full    = flag.Bool("full", false, "paper-size data for fig4 (p=8000, 100 points per example)")
		quick   = flag.Bool("quick", false, "shrunken sizes for a fast smoke run")
		timeout = flag.Duration("timeout", 0, "deadline for the whole suite (0 = none); Ctrl-C also aborts cleanly")
		csvDir  = flag.String("csv", "", "directory to also write <id>.csv files into")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := experiments.Options{
		Seed:       *seed,
		Trials:     *trials,
		Iterations: *iters,
		FullSize:   *full,
		Quick:      *quick,
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.Names()
	}
	start := time.Now()
	for _, id := range ids {
		tab, err := experiments.Run(ctx, id, opt, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bccbench: %v\n", err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, tab); err != nil {
				fmt.Fprintf(os.Stderr, "bccbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
}

func writeCSV(dir string, tab *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tab.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	tab.CSV(f)
	return nil
}
