// Command perfbench is the benchmark of record for the resilient PCG
// reproduction: time to solution with and without node failures, blocked
// multi-RHS throughput, and esrd job latency, on three workloads that stress
// different layers. See NOTES.md for which per-layer metric should move which
// end-to-end metric on which workload.
//
// Usage (normally through run.sh, which builds this binary and esrd first):
//
//	perfbench -esrd PATH -workdir DIR --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics; with --trace 1 they are the per-layer metrics of a
// separate traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

func main() {
	wlName := flag.String("workload", "", "workload name (esr-banded, esr-scattered, esrd-jobs)")
	seed := flag.Int64("seed", 1, "workload seed: right-hand sides, failure iterations and ranks, job mix")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	esrdPath := flag.String("esrd", "", "path of the built esrd binary")
	workdir := flag.String("workdir", "", "scratch directory for daemon data dirs, store files and span dumps")
	flag.Parse()

	if err := run(*wlName, *seed, *seconds, *trace == 1, *esrdPath, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(wlName string, seed int64, seconds int, traced bool, esrdPath, workdir string) error {
	wl, ok := workloadByName(wlName)
	if !ok {
		return fmt.Errorf("unknown workload %q", wlName)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1")
	}
	if esrdPath == "" || workdir == "" {
		return fmt.Errorf("-esrd and -workdir are required")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	ctx := context.Background()
	b := &bench{
		wl:      wl,
		rng:     rand.New(rand.NewSource(seed)),
		window:  time.Duration(seconds) * time.Second,
		traced:  traced,
		esrd:    esrdPath,
		tmp:     tmp,
		t:       map[string][]float64{},
		layer:   map[string]float64{},
		samples: map[string]int{},
	}
	if traced {
		b.spans = newSpans()
	}
	if err := b.setup(ctx); err != nil {
		return err
	}
	defer b.close()
	if err := b.selfTest(ctx); err != nil {
		return err
	}
	cpu0 := cpuStat()
	if err := b.measure(ctx); err != nil {
		return err
	}

	meta := machineShape(wl, b.a)
	meta["host_steal_frac"] = stealFrac(cpu0, cpuStat())
	metrics := b.endToEnd()
	if traced {
		metrics = b.perLayer()
		dump := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, seed))
		if err := b.spans.write(dump, meta); err != nil {
			return err
		}
	}
	// Human-readable context lines precede the result line: the machine
	// shape, each metric's sample count, and the error rate.
	printJSON(map[string]any{"meta": meta})
	printJSON(map[string]any{"samples": b.samples, "error_rate": b.errorRate(), "failures": b.failures})
	printJSON(map[string]any{
		"correct":   b.selfTestOK && b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	return nil
}

func printJSON(v any) {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, strings and numbers are printed
	}
	fmt.Println(string(out))
}
