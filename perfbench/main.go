// Command perfbench is the repository's benchmark: it runs one workload
// through the program's public APIs, checks the outputs, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics and a
// Chrome trace) ending in one JSON line.
//
//	bash perfbench/run.sh --workload census --seed 1 --seconds 20 --trace 0
//
// Workloads: census (what i2pmeasure runs), blocking (what i2pcensor
// runs) and handout (i2pdistribd serving bridge users). See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workers is the engine width of every workload and the number of
// saturation clients: one per CPU of the two-CPU machine the sizes were
// chosen on.
const workers = 2

// defaultSeed is the seed the golden digests were recorded on.
const defaultSeed = 2018

// runLimit cancels a run that would overrun the benchmark's 180 s budget.
const runLimit = 170 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	workload := flag.String("workload", "", "census, blocking or handout")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "measuring time")
	trace := flag.Int("trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	scale := flag.Float64("scale", 0, "network scale override (0: the workload's own size; goldens apply only there)")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for traces and the campaign's spill files")
	record := flag.Bool("record", false, "print this workload's output digests for goldens.go and exit")
	childKind := flag.String("child", "", "internal: run one timed pass or set-up as a child process")
	flag.Parse()

	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *scale < 0 {
		log.Fatal("--seconds must be positive, --trace 0 or 1, --scale non-negative")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	in := inputs{seed: *seed, scale: *scale, seconds: time.Duration(*seconds * float64(time.Second))}
	if *childKind != "" {
		// A child inherits its parent's environment, TMPDIR included.
		if err := child(ctx, *childKind, *workload, in); err != nil {
			log.Fatal(err)
		}
		return
	}
	// The streaming campaign spills evicted days under the temp
	// directory; keep that inside the output directory.
	tmp := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		log.Fatal(err)
	}
	os.Setenv("TMPDIR", tmp)

	if *record {
		if err := recordGoldens(ctx, *workload, in); err != nil {
			log.Fatal(err)
		}
		return
	}
	tracePath := ""
	if *trace == 1 {
		tracePath = filepath.Join(*out, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
	}
	rep, lines, err := run(ctx, *workload, in, tracePath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("perfbench %s: seed %d, %.0f s, trace %d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("  %s, workers %d\n", strings.Join(buildMeta(), ", "), workers)
	for _, l := range lines {
		fmt.Println("  " + l)
	}
	for _, name := range sortedMetricNames(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Printf("  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if tracePath != "" {
		fmt.Printf("  trace written to %s\n", tracePath)
	}
	fmt.Printf("  attempted %d, failed %d\n", rep.Attempted, rep.Failed)
	data, err := json.Marshal(rep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data))
	if !rep.Correct {
		os.Exit(1)
	}
}

// inputs are one invocation's workload parameters.
type inputs struct {
	seed    uint64
	scale   float64
	seconds time.Duration
}

// run executes one workload. The lines describe the inputs and the
// figures that sit beside the metrics.
func run(ctx context.Context, workload string, in inputs, tracePath string) (report, []string, error) {
	var (
		v                 values
		attempted, failed int
		lines             []string
		err               error
	)
	switch workload {
	case "census", "blocking":
		b := batchFor(workload, in)
		lines = append(lines, "input: "+b.inputSize())
		if tracePath == "" {
			v, attempted, failed, err = b.timed(ctx)
		} else {
			v, attempted, failed, err = b.traced(ctx, tracePath)
		}
	case "handout":
		h := handoutFor(in)
		lines = append(lines, "input: "+h.inputSize())
		if tracePath == "" {
			var sum handoutSummary
			v, attempted, failed, sum, err = h.timed(ctx)
			lines = append(lines,
				fmt.Sprintf("handout_p50_us %.3f us (open loop at %d req/s, from due time)", sum.p50us, openRate),
				fmt.Sprintf("handout_rps %.0f 1/s (saturation, %d closed-loop clients)", sum.rps, workers))
		} else {
			v, attempted, failed, err = h.traced(ctx, tracePath)
		}
	default:
		return report{}, nil, fmt.Errorf("unknown workload %q (want census, blocking or handout)", workload)
	}
	if err != nil {
		return report{}, nil, err
	}
	defs := endToEnd
	if tracePath != "" {
		defs = perLayer
	}
	ms, err := v.build(defs)
	if err != nil {
		return report{}, nil, err
	}
	if attempted < 1 {
		return report{}, nil, fmt.Errorf("no operations attempted")
	}
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, lines, nil
}

func batchFor(workload string, in inputs) batchRun {
	spec := censusSpec
	if workload == "blocking" {
		spec = blockingSpec
	}
	b := batchRun{spec: spec, seed: in.seed, scale: spec.scale, seconds: in.seconds}
	if in.scale > 0 {
		b.scale = in.scale
	}
	b.golden = in.seed == defaultSeed && b.scale == spec.scale
	return b
}

// handoutScale is the daemon's default network size.
const handoutScale = 0.1

func handoutFor(in inputs) handoutRun {
	h := handoutRun{seed: in.seed, scale: handoutScale, seconds: in.seconds}
	if in.scale > 0 {
		h.scale = in.scale
	}
	h.golden = in.seed == defaultSeed && h.scale == handoutScale
	return h
}

func sortedMetricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// recordGoldens prints the digests goldens.go holds for one workload,
// computed at the given seed and the workload's size.
func recordGoldens(ctx context.Context, workload string, in inputs) error {
	switch workload {
	case "census", "blocking":
		b := batchFor(workload, in)
		study, _, err := b.newStudy()
		if err != nil {
			return err
		}
		results, err := study.RunAll(ctx, b.spec.ids()...)
		if err != nil {
			return err
		}
		for _, res := range results {
			fmt.Printf("%q: %q,\n", res.ID, digest(res))
		}
		for _, res := range results {
			keys := sortedKeys(res.Metrics)
			for i, k := range keys {
				keys[i] = strconv.Quote(k)
			}
			fmt.Printf("%q: {%s},\n", res.ID, strings.Join(keys, ", "))
		}
	case "handout":
		h := handoutFor(in)
		d, _, err := h.newDaemon(nil)
		if err != nil {
			return err
		}
		snap, _ := h.checkPass(d, h.requests().checks, nil)
		fmt.Printf("%q: %q,\n", "bodies", snap.digest)
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	return nil
}
