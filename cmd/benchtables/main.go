// Command benchtables regenerates every table and figure of the paper's
// evaluation section against the simulated substrate.
//
// Quick mode (default) uses a reduced corpus and CV protocol so a full run
// finishes on a laptop; -full switches to the paper's scale (7,000 samples,
// 10-fold × 3 runs) and can take hours on CPU.
//
//	benchtables [-seed N] [-full] [-only table2,fig8,...]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtables: ")
	seed := flag.Int64("seed", 1, "experiment seed")
	full := flag.Bool("full", false, "paper-scale corpus and CV protocol (slow)")
	only := flag.String("only", "", "comma-separated artefact list (default: all)")
	n := flag.Int("n", 0, "override unique-phishing count (quick mode sizing)")
	hotpath := flag.String("hotpath", "", "write featurize/score hot-path benchmarks to this JSON file and exit (fails if the cached Score path allocates)")
	lifecycleOut := flag.String("lifecycle", "", "write model-lifecycle benchmarks (swap latency, shadow-mode overhead) to this JSON file and exit (fails if shadow overhead exceeds 10%)")
	backfillOut := flag.String("backfill", "", "write backfill-vs-watcher throughput benchmarks over a rate-limited RPC plane to this JSON file and exit (fails if the multi-endpoint speedup is below 2x)")
	clusterOut := flag.String("cluster", "", "write scoring-cluster benchmarks (1 vs 2 vs 4 rate-limited replicas behind the consistent-hash router) to this JSON file and exit (fails below a 3x 4-replica speedup or if the cluster-wide cache hit rate drops)")
	txstreamOut := flag.String("txstream", "", "write tx-stream benchmarks (pending-tx item rate vs the contract watcher on one rate-limited endpoint, cached fused-score allocs, kill/resume exactly-once) to this JSON file and exit (fails below a 5x item-rate speedup)")
	nnOut := flag.String("nn", "", "write deep-model serving benchmarks (closure reference vs compiled flat program) to this JSON file and exit (fails if the flat path allocates, float parity exceeds 1e-6, or the geomean flat speedup regresses below its floor)")
	adversarialOut := flag.String("adversarial", "", "write adversarial-robustness benchmarks (greedy bytecode-evasion attack vs raw-feature baselines and their canonical+augmented hardened twins) to this JSON file and exit (fails if the baseline resists the attack, the hardened model does not at least halve the evasion rate, clean holdout AUC regresses beyond 0.01, or the cached hardened Score path allocates)")
	chaosOut := flag.String("chaos", "", "write chaos-soak verdicts (pipelines under deterministic fault schedules: lost/duplicate alerts, breaker trips, post-blackout recovery, watchdog ejections) to this JSON file and exit (fails on any lost or duplicate alert, a missed breaker trip, recovery beyond 2 polling windows, or an unejected hung replica)")
	flag.Parse()

	if *hotpath != "" {
		if err := runHotpath(*seed, *hotpath); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *lifecycleOut != "" {
		if err := runLifecycle(*seed, *lifecycleOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *backfillOut != "" {
		if err := runBackfillBench(*seed, *backfillOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *clusterOut != "" {
		if err := runClusterBench(*seed, *clusterOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *txstreamOut != "" {
		if err := runTxstreamBench(*seed, *txstreamOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *nnOut != "" {
		if err := runNNBench(*seed, *nnOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *adversarialOut != "" {
		if err := runAdversarial(*seed, *adversarialOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *chaosOut != "" {
		if err := runChaosBench(*seed, *chaosOut); err != nil {
			log.Fatal(err)
		}
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, a := range strings.Split(*only, ",") {
			want[strings.TrimSpace(a)] = true
		}
	}
	enabled := func(name string) bool { return len(want) == 0 || want[name] }

	simCfg := ph.DefaultSimulationConfig(*seed)
	folds, runs := 3, 1
	if *full {
		simCfg = ph.PaperScaleConfig(*seed)
		folds, runs = 10, 3
	}
	if *n > 0 {
		simCfg.UniquePhishing = *n
		simCfg.ObtainedPhishing = 2 * *n
		simCfg.Benign = *n
	}
	sim, err := ph.StartSimulation(simCfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()
	ds := sim.Dataset()
	nb, np := ds.Counts()
	fmt.Printf("== corpus: %d contracts on chain, dataset %d samples (%d benign / %d phishing) ==\n\n",
		sim.NumContracts(), ds.Len(), nb, np)

	out := os.Stdout
	neural := ph.DefaultNeuralConfig(*seed)
	cv := ph.CVConfig{Folds: folds, Runs: runs, Seed: *seed}
	framework := ph.New(sim.RPCURL(), sim.ExplorerURL())

	if enabled("table1") {
		ph.RenderTable1(out)
		fmt.Fprintln(out)
	}
	if enabled("fig2") {
		ph.RenderFig2(out, sim)
		fmt.Fprintln(out)
	}
	if enabled("fig3") {
		ph.RenderFig3(out, ph.OpcodeUsage(ds, ph.Fig9Opcodes))
		fmt.Fprintln(out)
	}

	var results []ph.CVResult
	needCV := enabled("table2") || enabled("table3") || enabled("fig4")
	if needCV {
		t0 := time.Now()
		for _, spec := range ph.Models() {
			ts := time.Now()
			rs, err := framework.Evaluate([]ph.ModelSpec{spec}, ds, cv)
			if err != nil {
				log.Fatal(err)
			}
			results = append(results, rs...)
			m := rs[0].Mean()
			log.Printf("cv %-20s acc=%.4f f1=%.4f (%s)", spec.Name, m.Accuracy, m.F1,
				time.Since(ts).Round(time.Second))
		}
		fmt.Printf("(cross-validated 16 models in %s)\n\n", time.Since(t0).Round(time.Second))
	}
	if enabled("table2") {
		ph.RenderTable2(out, results)
		fmt.Fprintln(out)
	}
	if enabled("table3") {
		// The paper excludes ESCORT and the β variants from the post hoc
		// analysis (13 models remain).
		if err := ph.RenderTable3(out, postHocSubset(results)); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if enabled("fig4") {
		for _, metric := range []string{"accuracy", "f1", "precision", "recall"} {
			if err := ph.RenderFig4(out, postHocSubset(results), metric); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Fprintln(out)
	}

	var scal []ph.ScalabilityPoint
	if enabled("fig5") || enabled("fig6") || enabled("fig7") {
		scal, err = ph.RunScalability(ph.ScalabilitySpecs(), neural, ds, *seed)
		if err != nil {
			log.Fatal(err)
		}
	}
	if enabled("fig5") {
		ph.RenderFig5(out, scal)
		fmt.Fprintln(out)
	}
	if enabled("fig6") {
		for _, metric := range []string{"accuracy", "precision", "recall", "f1"} {
			if err := ph.RenderFig6(out, scal, metric); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Fprintln(out)
	}
	if enabled("fig7") {
		ph.RenderFig7(out, scal)
		fmt.Fprintln(out)
	}

	if enabled("fig8") {
		// The time-resistance dataset matches benign deployments to the
		// phishing temporal shape.
		trCfg := simCfg
		trCfg.MatchTemporal = true
		trCfg.Seed = *seed + 1
		trSim, err := ph.StartSimulation(trCfg)
		if err != nil {
			log.Fatal(err)
		}
		trDS := trSim.Dataset()
		var trResults []ph.TimeResistanceResult
		for _, spec := range ph.ScalabilitySpecs() {
			r, err := ph.RunTimeResistance(spec, neural, trDS, *seed)
			if err != nil {
				log.Fatal(err)
			}
			trResults = append(trResults, r)
		}
		trSim.Close()
		ph.RenderFig8(out, trResults)
		fmt.Fprintln(out)
	}

	if enabled("fig9") {
		infl, err := ph.SHAPAnalysis(ds, *seed, 20)
		if err != nil {
			log.Fatal(err)
		}
		ph.RenderFig9(out, infl)
	}
}

// postHocSubset drops ESCORT and the β variants, matching the paper's PAM
// input (13 models × trials).
func postHocSubset(results []ph.CVResult) []ph.CVResult {
	out := make([]ph.CVResult, 0, len(results))
	for _, r := range results {
		switch r.Model {
		case "ESCORT", "GPT-2β", "T5β":
			continue
		}
		out = append(out, r)
	}
	return out
}
