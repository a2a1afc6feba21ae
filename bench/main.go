// Command bench is the repository's wall-clock benchmark of the real path:
// legacy client -> realnet -> secure channel -> ecall -> Troxy -> Hybster ->
// trusted counter -> app.Store -> reply vote -> seal, measured end to end with
// tracing off and layer by layer in a second, traced pass. See README.md.
//
//	bash bench/run.sh -seed 7                  every workload, both passes
//	bash bench/run.sh -selfcheck               two end-to-end sets, compared
//	bash bench/run.sh --workload write_small --seed 7 --seconds 20 --trace 0
//
// With -workload the last line of standard output is one JSON object holding
// the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds: the measured time of
	// one workload run, split over its repetitions.
	defaultSeconds = 20

	// procs is the GOMAXPROCS the benchmark runs with. One: with every
	// goroutine of the deployment and of the load generator on a single
	// scheduler thread, a run does not depend on how the shared host places
	// and wakes a second virtual CPU, which on the two-vCPU guests the
	// benchmark runs on moved every timing metric by 15-30 % between runs
	// minutes apart (2 % with one, in the same quiet hour). The price: costs
	// and gains that only show across cores (parallel authentication, lock
	// contention) are hidden.
	procs = 1

	// traceDir receives trace-<workload>.json, relative to the repository
	// root (run.sh starts the benchmark there).
	traceDir = "bench/out"
)

// resultLine is the last line of a single-workload run.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "measured seconds per workload run")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run two end-to-end sets and compare them against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds)
	case *workload == "all":
		err = runAll(*seed, *seconds)
	default:
		err = runOne(*workload, *seed, *seconds, *trace == 1, traceDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func printHeader(seed int64, seconds float64) {
	fmt.Printf("# troxy bench: seed=%d seconds=%g gomaxprocs=%d %s\n", seed, seconds, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("# %d closed-loop clients on one machine -> %d replicas (etroxy, batch %d/%v, depth %d, fast reads)\n",
		numClients, numReplicas, batchSize, batchDelay, pipelineDepth)
	fmt.Println("# loopback TCP between clients and replicas, no injected delay; inter-replica messages cross the in-process router")
}

func printMetrics(workload string, specs []metricSpec, values map[string]float64, samples int) {
	for _, s := range specs {
		if v, ok := values[s.Name]; ok {
			fmt.Printf("%-15s %-34s %14.4f %-6s samples=%d\n", workload, s.Name, v, s.Unit, samples)
		}
	}
}

// runOne is the driver's entry point: one workload, one pass, one result
// line.
func runOne(name string, seed int64, seconds float64, traced bool, outDir string) error {
	spec, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	printHeader(seed, seconds)
	var (
		res   *runResult
		specs = endToEnd
		err   error
	)
	if traced {
		specs = perLayer
		if res, err = runTraced(spec, seed, seconds, outDir); err == nil {
			err = checkTraceSums(res.values)
		}
	} else {
		res, err = runEndToEnd(spec, seed, seconds)
	}
	if err != nil {
		return err
	}
	if traced {
		for k, v := range runPrimitives() {
			res.values[k] = v
		}
	}
	printMetrics(spec.Name, specs, res.values, res.samples)
	set, missing := fill(specs, res.values)
	if missing != "" {
		return fmt.Errorf("metric %s was not measured", missing)
	}
	for name, m := range set {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	line, err := json.Marshal(resultLine{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: set})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll prints every metric of every workload: the end-to-end pass, the
// traced pass, and the primitives once.
func runAll(seed int64, seconds float64) error {
	printHeader(seed, seconds)
	for _, spec := range workloads {
		fmt.Printf("\n## %s — %s\n", spec.Name, spec.Why)
		res, err := runEndToEnd(spec, seed, seconds)
		if err != nil {
			return err
		}
		printMetrics(spec.Name, endToEnd, res.values, res.samples)
		fmt.Printf("%-15s %-34s %14d %-6s failed=%d\n", spec.Name, "attempted", res.attempted, "count", res.failed)
		tres, err := runTraced(spec, seed, seconds, traceDir)
		if err != nil {
			return err
		}
		printMetrics(spec.Name, perLayer, tres.values, tres.samples)
		if err := checkTraceSums(tres.values); err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
	}
	fmt.Printf("\n## primitives — single goroutine, direct calls to public functions\n")
	printMetrics("-", perLayer, runPrimitives(), 0)
	return nil
}

// checkTraceSums verifies the two sums a traced run promises: the seven
// busy/residual metrics add up to the traced CPU per operation, and the five
// stages add up to the traced mean latency.
func checkTraceSums(v map[string]float64) error {
	busy := v["legacyclient.busy_us_per_op"] + v["replica.self_us_per_op"] + v["troxy.busy_us_per_op"] +
		v["tcounter.busy_us_per_op"] + v["app.exec_us_per_op"] + v["app.snapshot_us_per_op"] + v["realnet.residual_us_per_op"]
	if cpu := v["trace.cpu_us_per_op"]; math.Abs(busy-cpu) > 1e-6*math.Max(1, cpu) {
		return fmt.Errorf("busy+residual = %.4f us/op, traced cpu = %.4f us/op", busy, cpu)
	}
	stages := v["stage.ingress_ms"] + v["stage.troxy_in_ms"] + v["stage.order_ms"] + v["stage.vote_ms"] + v["stage.egress_ms"]
	if mean := v["trace.lat_mean_ms"]; mean == 0 || math.Abs(stages-mean) > 0.05*mean {
		return fmt.Errorf("stages sum to %.4f ms, traced mean latency is %.4f ms", stages, mean)
	}
	return nil
}

// runSelfcheck runs two full end-to-end sets back to back and compares them:
// the same code must agree with itself within the benchmark's own bounds.
func runSelfcheck(seed int64, seconds float64) error {
	printHeader(seed, seconds)
	sets := make([]map[string]*runResult, 2)
	for i := range sets {
		sets[i] = make(map[string]*runResult)
		for _, spec := range workloads {
			res, err := runEndToEnd(spec, seed+int64(i), seconds)
			if err != nil {
				return err
			}
			sets[i][spec.Name] = res
		}
	}
	fmt.Printf("%-15s %-16s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	exceeded := 0
	for _, spec := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0][spec.Name].values[m.Name], sets[1][spec.Name].values[m.Name]
			diff := ratio(math.Abs(b-a), math.Abs(a))
			verdict := ""
			if diff > m.Bound {
				verdict = "  EXCEEDED"
				exceeded++
			}
			fmt.Printf("%-15s %-16s %14.4f %14.4f %7.1f%% %7.1f%%%s\n", spec.Name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) differ by more than their bound", exceeded)
	}
	return nil
}
