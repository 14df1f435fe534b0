// Command figures regenerates every figure and ablation from the paper's
// evaluation (see DESIGN.md's experiment index):
//
//	F14  throughput vs. threads, Deque access pattern, all structures
//	F15  throughput vs. threads, Stack access pattern, all structures
//	F16  throughput vs. threads, Queue access pattern, all structures
//	A1   OFDeque buffer-size sensitivity
//	A2   OFDeque elimination on/off per pattern
//	A3   single-thread throughput per structure
//	A4   elimination placement (off- vs. on-critical-path)
//
// For each experiment it writes a CSV under -out and prints an ASCII chart
// plus a qualitative shape check against the paper's claims.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

var (
	outDir   = flag.String("out", "figures_out", "directory for CSV output")
	duration = flag.Duration("duration", 500*time.Millisecond, "measured duration per trial")
	trials   = flag.Int("trials", 5, "trials per point (the paper uses 5)")
	threads  = flag.String("threads", "", "comma-separated thread counts (default: 1,2,4,... up to GOMAXPROCS)")
	only     = flag.String("fig", "all", "which experiment to run: 14, 15, 16, a1, a2, a3, a4, or all")
)

func main() {
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	counts := defaultThreads()
	if *threads != "" {
		counts = counts[:0]
		for _, f := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fatal(fmt.Errorf("bad thread count %q", f))
			}
			counts = append(counts, n)
		}
	}
	fmt.Printf("# figures: GOMAXPROCS=%d threads=%v duration=%v trials=%d\n",
		runtime.GOMAXPROCS(0), counts, *duration, *trials)

	run := func(name string, f func([]int)) {
		if *only == "all" || *only == name {
			f(counts)
		}
	}
	run("14", func(c []int) { figure("figure14", bench.PatternDeque, c) })
	run("15", func(c []int) { figure("figure15", bench.PatternStack, c) })
	run("16", func(c []int) { figure("figure16", bench.PatternQueue, c) })
	run("a1", ablationBufferSize)
	run("a2", ablationElimination)
	run("a3", ablationSingleThread)
	run("a4", ablationElimPlacement)
	run("a5", ablationLatency)
}

func defaultThreads() []int {
	max := runtime.GOMAXPROCS(0)
	var out []int
	for t := 1; t < max; t *= 2 {
		out = append(out, t)
	}
	out = append(out, max)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// collect sweeps each named structure (or custom factory) over counts into
// a bench.Table.
func collect(pattern bench.Pattern, counts []int, names []string,
	custom map[string]bench.Factory) *bench.Table {
	tbl := &bench.Table{Threads: counts}
	for _, name := range names {
		cfg := bench.Config{
			Pattern:  pattern,
			Duration: *duration,
			Trials:   *trials,
			Pin:      true,
			Seed:     7,
		}
		if f, ok := custom[name]; ok {
			cfg.Factory = f
		} else {
			cfg.Structure = name
		}
		var points []float64
		for _, t := range counts {
			c := cfg
			c.Threads = t
			r, err := bench.Run(c)
			if err != nil {
				fatal(err)
			}
			points = append(points, r.Summary.Mean)
			fmt.Printf("  %-16s %-6s t=%-3d %14.0f ops/s\n", name, pattern, t, r.Summary.Mean)
		}
		if err := tbl.AddRow(name, points); err != nil {
			fatal(err)
		}
	}
	return tbl
}

func writeCSV(file string, tbl *bench.Table) {
	f, err := os.Create(filepath.Join(*outDir, file))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := tbl.WriteCSV(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", filepath.Join(*outDir, file))
}

// figure runs one of F14/F15/F16 across the paper's structures.
func figure(name string, pattern bench.Pattern, counts []int) {
	fmt.Printf("== %s (%s pattern) ==\n", name, pattern)
	tbl := collect(pattern, counts, bench.PaperStructures, nil)
	writeCSV(name+".csv", tbl)
	fmt.Println()
	fmt.Print(tbl.AsciiChart(name, 50))
	fmt.Println()
	shapeCheck(name, pattern, tbl)
}

// shapeCheck prints pass/fail for the paper's qualitative claims.
func shapeCheck(name string, pattern bench.Pattern, tbl *bench.Table) {
	of, ofe := tbl.Get("of"), tbl.Get("of-elim")
	mm, st := tbl.Get("mm"), tbl.Get("st")
	fc := tbl.Get("fc")
	var checks []bench.ShapeCheck
	add := func(label string, ok bool) {
		checks = append(checks, bench.ShapeCheck{Label: label, OK: ok})
	}
	add("OF single-thread beats MM and ST", of.At(0) > mm.At(0) && of.At(0) > st.At(0))
	switch pattern {
	case bench.PatternQueue:
		add("elimination does not help Queue (of >= of-elim)", of.Final() >= ofe.Final()*0.8)
		add("FC competitive at max threads (fc within 3x of best)",
			fc.Final()*3 >= tbl.MaxFinal())
	default:
		add("elimination helps at max threads (of-elim > of)", ofe.Final() > of.Final())
		add("OF-elim at or near the top (within 1.5x of best)",
			ofe.Final()*1.5 >= tbl.MaxFinal())
	}
	fmt.Print(bench.FormatShapeChecks(name, checks))
}

// ablationBufferSize is A1: the paper reports "no significant performance
// impact for different buffer sizes".
func ablationBufferSize(counts []int) {
	fmt.Println("== ablation A1: OFDeque buffer size ==")
	sizes := []int{64, 256, 1024, 4096}
	names := make([]string, len(sizes))
	custom := map[string]bench.Factory{}
	for i, sz := range sizes {
		names[i] = fmt.Sprintf("of-sz%d", sz)
		custom[names[i]] = bench.OFWithNodeSize(sz)
	}
	tbl := collect(bench.PatternDeque, counts, names, custom)
	writeCSV("ablation_buffer_size.csv", tbl)
	fmt.Print(tbl.AsciiChart("A1 buffer size", 50))
}

// ablationElimination is A2: elimination on/off per access pattern.
func ablationElimination(counts []int) {
	fmt.Println("== ablation A2: elimination per pattern ==")
	for _, p := range bench.Patterns {
		tbl := collect(p, counts, []string{"of", "of-elim"}, nil)
		writeCSV(fmt.Sprintf("ablation_elimination_%s.csv", p), tbl)
		fmt.Print(tbl.AsciiChart(fmt.Sprintf("A2 elimination (%s)", p), 50))
	}
}

// ablationSingleThread is A3: single-thread throughput of every structure.
func ablationSingleThread(_ []int) {
	fmt.Println("== ablation A3: single-thread throughput ==")
	one := []int{1}
	tbl := collect(bench.PatternDeque, one, bench.PaperStructures, nil)
	writeCSV("ablation_single_thread.csv", tbl)
	fmt.Print(tbl.AsciiChart("A3 single thread", 50))
}

// ablationElimPlacement is A4: the paper's off-critical-path elimination
// versus the naive linger-first design.
func ablationElimPlacement(counts []int) {
	fmt.Println("== ablation A4: elimination placement ==")
	names := []string{"of-elim", "of-elim-naive"}
	tbl := collect(bench.PatternStack, counts, names, nil)
	writeCSV("ablation_elim_placement.csv", tbl)
	fmt.Print(tbl.AsciiChart("A4 elimination placement (stack)", 50))
}

// ablationLatency is A5: per-operation latency percentiles. The paper's
// abstract claims OFDeque has "no pathological long-latency scenarios" and
// its related-work section says the time-stamped deque buys throughput "at
// the expense of intentionally elevated latency" — here with a 10µs
// interval delay for the ts-hw-delay row.
func ablationLatency(counts []int) {
	fmt.Println("== ablation A5: operation latency ==")
	threads := counts[len(counts)-1]
	type row struct {
		name    string
		factory bench.Factory
	}
	rows := []row{
		{"of", nil}, {"of-elim", nil}, {"sgl", nil}, {"fc", nil},
		{"mm", nil}, {"st", nil}, {"ts-fai", nil}, {"ts-hw", nil},
		{"ts-hw-delay10us", bench.TSHWWithDelay(10 * time.Microsecond)},
	}
	f, err := os.Create(filepath.Join(*outDir, "ablation_latency.csv"))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	fmt.Fprintln(f, "structure,threads,mean_ns,p50_ns,p90_ns,p99_ns,p999_ns,max_ns")
	for _, r := range rows {
		cfg := bench.Config{
			Structure: r.name,
			Factory:   r.factory,
			Pattern:   bench.PatternDeque,
			Threads:   threads,
			Duration:  *duration,
			Prefill:   1024,
			Pin:       true,
			Seed:      7,
		}
		if r.factory != nil {
			cfg.Structure = ""
		}
		res, err := bench.RunLatency(cfg)
		if err != nil {
			fatal(err)
		}
		h := res.Hist
		fmt.Printf("  %-16s %s\n", r.name, h)
		fmt.Fprintf(f, "%s,%d,%.0f,%d,%d,%d,%d,%d\n",
			r.name, threads, h.Mean(), h.Quantile(0.5), h.Quantile(0.9),
			h.Quantile(0.99), h.Quantile(0.999), h.Max)
	}
	fmt.Printf("wrote %s\n", filepath.Join(*outDir, "ablation_latency.csv"))
}
