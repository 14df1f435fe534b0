// Command benchcontention measures the hot-path contention benchmarks and
// writes BENCH_contention.json: the mixed 4-way push/pop workload on the
// generic Deque[uint32] across a goroutine sweep, in "current" mode (the
// optimized hot path) and "legacy" mode (per-handle slab caching and edge
// caching disabled), plus batch-API runs. See scripts/bench_contention.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/contbench"
	"repro/internal/hostmeta"
	"repro/internal/obs"
)

// run is one sweep's numbers, keyed by goroutine count.
type run struct {
	Label       string             `json:"label"`
	Mode        string             `json:"mode"`
	Batch       int                `json:"batch,omitempty"`
	OpsPerSec   map[string]float64 `json:"ops_per_sec"`
	RelStddev   map[string]float64 `json:"rel_stddev"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
	BytesPerOp  map[string]float64 `json:"bytes_per_op"`
	TrialsUsed  int                `json:"trials"`
	// Metrics/Derived report the observability layer's transition mix per
	// goroutine count (summed over trials); present only with -metrics.
	Metrics map[string]obs.Metrics `json:"metrics,omitempty"`
	Derived map[string]obs.Derived `json:"derived,omitempty"`
}

type report struct {
	Generated string             `json:"generated"`
	Host      hostmeta.Host      `json:"host"`
	Workload  string             `json:"workload"`
	DurationS float64            `json:"duration_s"`
	Threads   []int              `json:"threads"`
	Baseline  run                `json:"baseline"`
	Current   run                `json:"current"`
	Batches   []run              `json:"batch_runs,omitempty"`
	Speedup   map[string]float64 `json:"speedup_current_over_baseline"`
}

func main() {
	var (
		duration     = flag.Duration("duration", 500*time.Millisecond, "measured run length per trial")
		trials       = flag.Int("trials", 3, "trials per configuration")
		threadsFlag  = flag.String("threads", "1,4,16", "comma-separated goroutine counts")
		prefill      = flag.Int("prefill", 1024, "elements inserted before measuring")
		batchesFlag  = flag.String("batches", "8", "comma-separated batch sizes for batch-API runs (empty to skip)")
		out          = flag.String("out", "BENCH_contention.json", "output path")
		baselineFile = flag.String("baseline-file", "", "JSON file with a measured pre-PR baseline run to embed instead of the in-binary legacy mode")
		baselineOnly = flag.Bool("baseline-only", false, "measure only the current tree's single-op sweep and write it as a baseline run file")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the sweeps to this file")
		metricsFlag  = flag.Bool("metrics", false, "record the transition mix (observability counters) per sweep point")
		helpingFlag  = flag.Bool("helping", false, "enable the announcement/helping layer on the deques under test (A/B its overhead)")
		latSample    = flag.Int("latsample", 0, "latency-histogram sampling interval (0 = library default, negative = disabled; A/B via scripts/oplatency_overhead.sh)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("create -cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("start profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	threads, err := bench.ParseInts(*threadsFlag, false)
	if err != nil {
		fatalf("bad -threads: %v", err)
	}
	batches, err := bench.ParseInts(*batchesFlag, false)
	if err != nil {
		fatalf("bad -batches: %v", err)
	}

	sweep := func(mode contbench.ContentionMode, batch int, label string) run {
		r := run{
			Label:       label,
			Mode:        string(mode),
			Batch:       batch,
			OpsPerSec:   map[string]float64{},
			RelStddev:   map[string]float64{},
			AllocsPerOp: map[string]float64{},
			BytesPerOp:  map[string]float64{},
			TrialsUsed:  *trials,
		}
		for _, t := range threads {
			res := contbench.RunContention(contbench.ContentionConfig{
				Threads:   t,
				Duration:  *duration,
				Trials:    *trials,
				Prefill:   *prefill,
				Batch:     batch,
				Mode:      mode,
				Seed:      0x9E3779B97F4A7C15,
				Helping:   *helpingFlag,
				LatSample: *latSample,
			})
			key := strconv.Itoa(t)
			r.OpsPerSec[key] = res.Throughput()
			r.RelStddev[key] = res.Summary.RelStddev()
			r.AllocsPerOp[key] = res.AllocsPerOp
			r.BytesPerOp[key] = res.BytesPerOp
			fmt.Fprintf(os.Stderr, "  %-24s t=%-3d %14.0f ops/s (±%.1f%%)  %.4f allocs/op  %.1f B/op\n",
				label, t, res.Throughput(), 100*res.Summary.RelStddev(),
				res.AllocsPerOp, res.BytesPerOp)
			if *metricsFlag {
				if r.Metrics == nil {
					r.Metrics = map[string]obs.Metrics{}
					r.Derived = map[string]obs.Derived{}
				}
				d := res.Metrics.Derive()
				r.Metrics[key] = res.Metrics
				r.Derived[key] = d
				fmt.Fprintf(os.Stderr, "  %-24s t=%-3d straddle=%.4f casfail=%.4f hops/op=%.4f cachehit=%.4f\n",
					"", t, d.StraddleRatio, d.CASFailureRatio, d.MeanOracleHops, d.EdgeCacheHitRate)
			}
		}
		return r
	}

	if *baselineOnly {
		r := sweep(contbench.ModeCurrent, 0, "measured baseline")
		if err := bench.WriteJSON(*out, r); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote baseline run to %s\n", *out)
		return
	}

	var baseline run
	if *baselineFile != "" {
		data, err := os.ReadFile(*baselineFile)
		if err != nil {
			fatalf("read -baseline-file: %v", err)
		}
		if err := json.Unmarshal(data, &baseline); err != nil {
			fatalf("parse -baseline-file: %v", err)
		}
		fmt.Fprintf(os.Stderr, "embedding measured baseline %q\n", baseline.Label)
	} else {
		fmt.Fprintln(os.Stderr, "== baseline (legacy mode: per-handle caches disabled) ==")
		baseline = sweep(contbench.ModeLegacy, 0, "legacy (in-binary approx)")
	}

	fmt.Fprintln(os.Stderr, "== current (optimized hot path) ==")
	current := sweep(contbench.ModeCurrent, 0, "current")

	var batchRuns []run
	for _, b := range batches {
		if b <= 1 {
			continue
		}
		fmt.Fprintf(os.Stderr, "== current, batch=%d ==\n", b)
		batchRuns = append(batchRuns, sweep(contbench.ModeCurrent, b, fmt.Sprintf("current batch=%d", b)))
	}

	speedup := map[string]float64{}
	for _, t := range threads {
		key := strconv.Itoa(t)
		if base := baseline.OpsPerSec[key]; base > 0 {
			speedup[key] = current.OpsPerSec[key] / base
		}
	}

	rep := report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host:      hostmeta.Collect(),
		Workload:  fmt.Sprintf("mixed 4-way push/pop on deque.Deque[uint32], prefill %d", *prefill),
		DurationS: duration.Seconds(),
		Threads:   threads,
		Baseline:  baseline,
		Current:   current,
		Batches:   batchRuns,
		Speedup:   speedup,
	}
	if err := bench.WriteJSON(*out, rep); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	for _, t := range threads {
		key := strconv.Itoa(t)
		if s, ok := speedup[key]; ok {
			fmt.Fprintf(os.Stderr, "  speedup t=%-3s %.2fx\n", key, s)
		} else {
			fmt.Fprintf(os.Stderr, "  speedup t=%-3s n/a (no baseline point)\n", key)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
