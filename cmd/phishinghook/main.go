// Command phishinghook is the framework CLI. It drives the four modules
// against any JSON-RPC + explorer endpoints (by default an in-process
// simulated chain):
//
//	phishinghook gather    — list contract addresses in the study window (➊)
//	phishinghook label     — scrape Phish/Hack flags (➋)
//	phishinghook extract   — fetch bytecode for an address (➌, BEM)
//	phishinghook disasm    — disassemble bytecode to opcodes (➎, BDM)
//	phishinghook dataset   — build the balanced deduplicated dataset (➍)
//	phishinghook evaluate  — cross-validate models on a dataset CSV (➐, MEM)
//
// and the serving workflow built on the Detector API:
//
//	phishinghook train     — fit a Detector and save it to disk
//	phishinghook score     — score bytecode or an address with a Detector
//	phishinghook serve     — expose POST /score over HTTP
//	phishinghook watch     — follow the chain head and score new deployments
//	phishinghook retrain   — train a new version into a model store as the
//	                         shadow challenger (or promote/GC the store)
//
// serve and watch accept -store DIR to score through the model-lifecycle
// handle: the store's champion serves, a challenger shadows the same
// traffic, and the admin endpoints (POST /admin/reload, POST /admin/promote,
// GET /admin/versions) hot-swap versions under live load without dropping a
// score. A typical champion/challenger cycle against one store directory:
//
//	phishinghook serve -store models -listen 127.0.0.1:8980   # serves v0001
//	phishinghook retrain -store models -from 6 -to 12         # trains v0002 as challenger
//	curl -X POST http://127.0.0.1:8980/admin/reload           # v0002 starts shadowing
//	curl http://127.0.0.1:8980/metrics | grep shadow          # divergence says it's sane
//	curl -X POST http://127.0.0.1:8980/admin/promote          # v0002 is champion
//
// watch is the Watchtower workload: it polls eth_blockNumber, lists each new
// block's deployments from the registry, fetches bytecode, dedups clones by
// SHA-256 and scores every unique deployment the moment it lands, firing
// alerts above the confidence threshold. Against the default in-process
// simulation it trains on the released past, switches the chain live and
// replays the remaining months under a deterministic block clock:
//
//	phishinghook watch -months 1 -threshold 0.9 -alerts alerts.jsonl \
//	    -checkpoint watch.cursor
//
// Against real endpoints (-rpc/-explorer) it runs until interrupted,
// resuming from -checkpoint after restarts without re-scoring anything.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("phishinghook: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "gather":
		err = cmdGather(args)
	case "label":
		err = cmdLabel(args)
	case "extract":
		err = cmdExtract(args)
	case "disasm":
		err = cmdDisasm(args)
	case "dataset":
		err = cmdDataset(args)
	case "evaluate":
		err = cmdEvaluate(args)
	case "train":
		err = cmdTrain(args)
	case "score":
		err = cmdScore(args)
	case "serve":
		err = cmdServe(args)
	case "route":
		err = cmdRoute(args)
	case "watch":
		err = cmdWatch(args)
	case "txwatch":
		err = cmdTxWatch(args)
	case "backfill":
		err = cmdBackfill(args)
	case "chaos":
		err = cmdChaos(args)
	case "retrain":
		err = cmdRetrain(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: phishinghook <gather|label|extract|disasm|dataset|evaluate|train|score|serve|route|watch|txwatch|backfill|chaos|retrain> [flags]
run "phishinghook <command> -h" for command flags

route consistent-hashes /score across serve replicas (cluster-wide cache):
  phishinghook route -replicas http://127.0.0.1:8981,http://127.0.0.1:8982

watch follows the chain head and scores every new deployment, e.g.:
  phishinghook watch -months 1 -threshold 0.9 -alerts alerts.jsonl -checkpoint watch.cursor

txwatch drains the pending-transaction feed and fuses a calldata verdict
with the callee's code verdict, exactly-once per tx hash across restarts:
  phishinghook txwatch -months 1 -threshold 0.9 -alerts txalerts.jsonl -checkpoint tx.cursor

backfill scores every historical deployment in a block range, sharded over
an adaptive multi-endpoint fetch plane and resumable from its checkpoint:
  phishinghook backfill -from 18250000 -to 19000000 -shards 8 \
      -endpoints https://node-a,https://node-b -checkpoint backfill.cursor

chaos soaks a pipeline under a deterministic fault schedule (endpoint
blackouts, malformed bodies, torn checkpoint writes, sink outages, hung
replicas) and verdicts it on lost alerts, duplicates and recovery time:
  phishinghook chaos -scenario txwatch -schedule soak -seed 1 -out chaos.json

retrain trains a fresh version into a -store directory as the shadow
challenger; a server on the same store picks it up via POST /admin/reload
and flips it live via POST /admin/promote:
  phishinghook retrain -store models -from 6 -to 12 -if-drifted`)
}

// endpoints resolves the substrate: explicit URLs, or a fresh simulation.
func endpoints(fs *flag.FlagSet) (rpcURL, explURL *string, seed *int64, start func() (*ph.Simulation, error)) {
	rpcURL = fs.String("rpc", "", "JSON-RPC endpoint (default: in-process simulation)")
	explURL = fs.String("explorer", "", "explorer endpoint (default: in-process simulation)")
	seed = fs.Int64("seed", 1, "simulation / experiment seed")
	start = func() (*ph.Simulation, error) {
		if *rpcURL != "" && *explURL != "" {
			return nil, nil
		}
		sim, err := ph.StartSimulation(ph.DefaultSimulationConfig(*seed))
		if err != nil {
			return nil, err
		}
		*rpcURL = sim.RPCURL()
		*explURL = sim.ExplorerURL()
		return sim, nil
	}
	return rpcURL, explURL, seed, start
}

func cmdGather(args []string) error {
	fs := flag.NewFlagSet("gather", flag.ExitOnError)
	rpcURL, explURL, _, start := endpoints(fs)
	limit := fs.Int("limit", 20, "print at most this many addresses (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sim, err := start()
	if err != nil {
		return err
	}
	if sim != nil {
		defer sim.Close()
	}
	f := ph.New(*rpcURL, *explURL)
	addrs, err := f.GatherAddresses(context.Background(), 0, ^uint64(0))
	if err != nil {
		return err
	}
	fmt.Printf("%d contracts in range\n", len(addrs))
	n := len(addrs)
	if *limit > 0 && n > *limit {
		n = *limit
	}
	for _, a := range addrs[:n] {
		fmt.Println(a)
	}
	return nil
}

func cmdLabel(args []string) error {
	fs := flag.NewFlagSet("label", flag.ExitOnError)
	rpcURL, explURL, _, start := endpoints(fs)
	address := fs.String("address", "", "contract address (required with -rpc/-explorer; default: first simulated phishing hit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sim, err := start()
	if err != nil {
		return err
	}
	if sim != nil {
		defer sim.Close()
	}
	f := ph.New(*rpcURL, *explURL)
	ctx := context.Background()
	addrs := []string{*address}
	if *address == "" {
		all, err := f.GatherAddresses(ctx, 0, ^uint64(0))
		if err != nil {
			return err
		}
		addrs = all[:10]
	}
	labels, err := f.LabelAddresses(ctx, addrs)
	if err != nil {
		return err
	}
	for _, a := range addrs {
		lbl := "-"
		if labels[a] {
			lbl = ph.PhishLabel
		}
		fmt.Printf("%s  %s\n", a, lbl)
	}
	return nil
}

func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	rpcURL, explURL, _, start := endpoints(fs)
	address := fs.String("address", "", "contract address (default: first simulated contract)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sim, err := start()
	if err != nil {
		return err
	}
	if sim != nil {
		defer sim.Close()
	}
	f := ph.New(*rpcURL, *explURL)
	ctx := context.Background()
	if *address == "" {
		all, err := f.GatherAddresses(ctx, 0, ^uint64(0))
		if err != nil {
			return err
		}
		*address = all[0]
	}
	code, err := f.ExtractBytecode(ctx, *address)
	if err != nil {
		return err
	}
	if code == nil {
		return fmt.Errorf("no code at %s", *address)
	}
	fmt.Println(ph.EncodeHex(code))
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	hexCode := fs.String("bytecode", "0x6080604052", "hex bytecode to disassemble")
	if err := fs.Parse(args); err != nil {
		return err
	}
	code, err := ph.DecodeHex(*hexCode)
	if err != nil {
		return err
	}
	for _, in := range ph.Disassemble(code) {
		fmt.Printf("%06x  %s\n", in.Offset, in)
	}
	return nil
}

func cmdDataset(args []string) error {
	fs := flag.NewFlagSet("dataset", flag.ExitOnError)
	rpcURL, explURL, seed, start := endpoints(fs)
	out := fs.String("o", "dataset.csv", "output CSV path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sim, err := start()
	if err != nil {
		return err
	}
	if sim != nil {
		defer sim.Close()
	}
	f := ph.New(*rpcURL, *explURL)
	ds, err := f.BuildDataset(context.Background(), 0, ^uint64(0), *seed)
	if err != nil {
		return err
	}
	file, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := ds.WriteCSV(file); err != nil {
		return err
	}
	nb, np := ds.Counts()
	fmt.Printf("wrote %s: %d samples (%d benign / %d phishing)\n", *out, ds.Len(), nb, np)
	return nil
}

func cmdEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	rpcURL, explURL, seed, start := endpoints(fs)
	modelsFlag := fs.String("models", "Random Forest", "comma-separated model names, or 'all'")
	folds := fs.Int("folds", 3, "cross-validation folds")
	runs := fs.Int("runs", 1, "cross-validation runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sim, err := start()
	if err != nil {
		return err
	}
	if sim == nil {
		return fmt.Errorf("evaluate requires the simulation (dataset months come from the chain)")
	}
	defer sim.Close()
	ds := sim.Dataset()

	var specs []ph.ModelSpec
	if *modelsFlag == "all" {
		specs = ph.Models()
	} else {
		for _, name := range strings.Split(*modelsFlag, ",") {
			spec, err := ph.ModelByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			specs = append(specs, spec)
		}
	}
	f := ph.New(*rpcURL, *explURL)
	t0 := time.Now()
	results, err := f.Evaluate(specs, ds, ph.CVConfig{Folds: *folds, Runs: *runs, Seed: *seed})
	if err != nil {
		return err
	}
	ph.RenderTable2(os.Stdout, results)
	fmt.Printf("\nevaluated in %s\n", time.Since(t0).Round(time.Millisecond))
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	rpcURL, explURL, seed, start := endpoints(fs)
	model := fs.String("model", "Random Forest", "model name (see 'evaluate -models all')")
	out := fs.String("o", "detector.bin", "output detector path")
	harden := fs.Bool("harden", false, "adversarially harden: canonical (reachable-only) featurization + mutated-phishing training augmentation; the mode persists in the saved detector")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sim, err := start()
	if err != nil {
		return err
	}
	if sim == nil {
		return fmt.Errorf("train uses the simulation corpus; omit -rpc/-explorer")
	}
	defer sim.Close()
	_ = rpcURL
	_ = explURL

	spec, err := ph.ModelByName(*model)
	if err != nil {
		return err
	}
	ds := sim.Dataset()
	t0 := time.Now()
	trainOpts := []ph.DetectorOption{ph.WithDetectorSeed(*seed)}
	if *harden {
		trainOpts = append(trainOpts, ph.WithCanonicalFeatures(), ph.WithAdversarialAugment(0.5))
	}
	det, err := ph.Train(spec, ds, trainOpts...)
	if err != nil {
		return err
	}
	file, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := det.Save(file); err != nil {
		return err
	}
	info, _ := file.Stat()
	fmt.Printf("trained %s on %d contracts in %s; saved %s (%d bytes)\n",
		det.ModelName(), ds.Len(), time.Since(t0).Round(time.Millisecond), *out, info.Size())
	return nil
}

// loadOrTrainDetector resolves the detector a serving command uses: a saved
// file when given, otherwise a fresh model trained on the simulation.
func loadOrTrainDetector(path, model string, seed int64, sim *ph.Simulation, rpcURL string, extra ...ph.DetectorOption) (*ph.Detector, error) {
	opts := append([]ph.DetectorOption{ph.WithDetectorSeed(seed), ph.WithRPC(rpcURL)}, extra...)
	if path != "" {
		file, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		return ph.LoadDetector(file, opts...)
	}
	if sim == nil {
		return nil, fmt.Errorf("no -detector file and no simulation to train on")
	}
	spec, err := ph.ModelByName(model)
	if err != nil {
		return nil, err
	}
	return ph.Train(spec, sim.Dataset(), opts...)
}

// openLifecycle opens a model store and returns a manager with a deployed
// champion: an empty store is seeded by loading (or training) a detector and
// deploying it as v0001, so `serve -store` and `watch -store` work from a
// blank directory.
func openLifecycle(storeDir, detPath, model string, seed int64, sim *ph.Simulation, rpcURL string) (*ph.Lifecycle, error) {
	store, err := ph.OpenModelStore(storeDir)
	if err != nil {
		return nil, err
	}
	lc, err := ph.NewLifecycle(store, ph.WithDetectorSeed(seed), ph.WithRPC(rpcURL))
	if err != nil {
		return nil, err
	}
	if _, det := lc.Handle().Champion(); det == nil {
		seedDet, err := loadOrTrainDetector(detPath, model, seed, sim, rpcURL)
		if err != nil {
			return nil, err
		}
		v, err := lc.SaveVersion(seedDet, ph.ModelMeta{
			TrainFrom: 0, TrainTo: ph.NumMonths - 1, Note: "initial deployment",
		})
		if err != nil {
			return nil, err
		}
		if err := lc.Deploy(v.ID); err != nil {
			return nil, err
		}
		fmt.Printf("seeded model store %s with %s (%s)\n", storeDir, v.ID, seedDet.ModelName())
	}
	return lc, nil
}

// phishProbs scores every sample through the detector and returns the
// P(phishing) series — the input drift comparisons run on.
func phishProbs(ctx context.Context, det *ph.Detector, ds *ph.Dataset) ([]float64, error) {
	codes := make([][]byte, ds.Len())
	for i, s := range ds.Samples {
		codes[i] = s.Bytecode
	}
	vs, err := det.ScoreBatch(ctx, codes)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v.PhishProb()
	}
	return out, nil
}

func cmdRetrain(args []string) error {
	fs := flag.NewFlagSet("retrain", flag.ExitOnError)
	rpcURL, explURL, seed, start := endpoints(fs)
	storeDir := fs.String("store", "models", "model-store directory")
	model := fs.String("model", "", "model name (default: the champion's spec, or Random Forest)")
	from := fs.Int("from", 0, "first training month")
	to := fs.Int("to", ph.NumMonths-1, "last training month")
	note := fs.String("note", "", "free-form provenance note recorded on the version")
	promote := fs.Bool("promote", false, "promote the store's challenger instead of training")
	gc := fs.Int("gc", 0, "after any action, drop all but the newest N versions (champion/challenger always kept; 0 keeps all)")
	ifDrifted := fs.Bool("if-drifted", false, "retrain only when the champion's score distribution on [-from,-to] drifted from its own training window (PSI)")
	psi := fs.Float64("psi", 0.25, "PSI threshold for -if-drifted")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_ = explURL

	store, err := ph.OpenModelStore(*storeDir)
	if err != nil {
		return err
	}
	if *promote {
		ch, ok := store.Challenger()
		if !ok {
			return fmt.Errorf("store %s has no challenger to promote", *storeDir)
		}
		if err := store.Promote(ch.ID); err != nil {
			return err
		}
		fmt.Printf("promoted %s (%s) to champion; a running server applies it via POST /admin/reload\n", ch.ID, ch.Spec)
		return runStoreGC(store, *gc)
	}

	sim, err := start()
	if err != nil {
		return err
	}
	if sim == nil {
		return fmt.Errorf("retrain trains on the simulation corpus; omit -rpc/-explorer")
	}
	defer sim.Close()
	if *from < 0 || *to >= ph.NumMonths || *from > *to {
		return fmt.Errorf("month window [%d,%d] outside [0,%d]", *from, *to, ph.NumMonths-1)
	}
	window := sim.Dataset().MonthRange(*from, *to)
	if window.Len() == 0 {
		return fmt.Errorf("no samples in months [%d,%d]", *from, *to)
	}

	champ, hasChamp := store.Champion()
	spec := *model
	if spec == "" {
		if hasChamp {
			spec = champ.Spec
		} else {
			spec = "Random Forest"
		}
	}
	modelSpec, err := ph.ModelByName(spec)
	if err != nil {
		return err
	}

	ctx := context.Background()
	lc, err := ph.NewLifecycle(store, ph.WithDetectorSeed(*seed), ph.WithRPC(*rpcURL))
	if err != nil {
		return err
	}
	var trigger ph.DriftReport
	if *ifDrifted {
		if !hasChamp {
			return fmt.Errorf("-if-drifted needs a champion in the store")
		}
		_, champDet := lc.Handle().Champion()
		refDS := sim.Dataset().MonthRange(champ.TrainFrom, champ.TrainTo)
		if refDS.Len() == 0 {
			return fmt.Errorf("champion %s has an empty training window [%d,%d]", champ.ID, champ.TrainFrom, champ.TrainTo)
		}
		ref, err := phishProbs(ctx, champDet, refDS)
		if err != nil {
			return err
		}
		live, err := phishProbs(ctx, champDet, window)
		if err != nil {
			return err
		}
		trigger, err = ph.ScoreDrift(ref, live, 10, *psi, 0)
		if err != nil {
			return err
		}
		fmt.Printf("drift of %s on months [%d,%d]: PSI=%.3f KS=%.3f (p=%.2g)\n",
			champ.ID, *from, *to, trigger.PSI, trigger.KSStat, trigger.KSP)
		if !trigger.Drifted {
			fmt.Printf("PSI below %.2f — champion still fits the traffic, not retraining\n", *psi)
			return runStoreGC(store, *gc)
		}
	}

	t0 := time.Now()
	det, err := ph.Train(modelSpec, window, ph.WithDetectorSeed(*seed))
	if err != nil {
		return err
	}
	meta := ph.ModelMeta{
		TrainFrom: *from, TrainTo: *to, TrainSamples: window.Len(),
		Parent: champ.ID, Note: *note,
	}
	if trigger.Window > 0 {
		meta.Metrics = map[string]float64{"trigger_psi": trigger.PSI, "trigger_ks": trigger.KSStat}
	}
	v, err := lc.SaveVersion(det, meta)
	if err != nil {
		return err
	}
	if !hasChamp {
		// First version in an empty store: Put made it champion; there is
		// nothing to shadow against.
		fmt.Printf("trained %s on months [%d,%d] (%d samples) in %s; stored as %s, the store's first champion\n",
			det.ModelName(), *from, *to, window.Len(), time.Since(t0).Round(time.Millisecond), v.ID)
		return runStoreGC(store, *gc)
	}
	if err := store.SetChallenger(v.ID); err != nil {
		return err
	}
	fmt.Printf("trained %s on months [%d,%d] (%d samples) in %s; stored as %s, now the challenger\n",
		det.ModelName(), *from, *to, window.Len(), time.Since(t0).Round(time.Millisecond), v.ID)
	fmt.Println("a running server starts shadowing it via POST /admin/reload and flips it live via POST /admin/promote")
	return runStoreGC(store, *gc)
}

func runStoreGC(store *ph.ModelStore, keep int) error {
	if keep <= 0 {
		return nil
	}
	removed, err := store.GC(keep)
	if err != nil {
		return err
	}
	if len(removed) > 0 {
		fmt.Printf("gc dropped %d old versions: %s\n", len(removed), strings.Join(removed, ", "))
	}
	return nil
}

func cmdScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	rpcURL, _, seed, start := endpoints(fs)
	detPath := fs.String("detector", "", "saved detector path (default: train fresh on the simulation)")
	model := fs.String("model", "Random Forest", "model to train when no -detector is given")
	bytecode := fs.String("bytecode", "", "hex bytecode to score")
	address := fs.String("address", "", "contract address to score via eth_getCode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sim, err := start()
	if err != nil {
		return err
	}
	if sim != nil {
		defer sim.Close()
	}
	det, err := loadOrTrainDetector(*detPath, *model, *seed, sim, *rpcURL)
	if err != nil {
		return err
	}
	ctx := context.Background()
	switch {
	case *bytecode != "":
		v, err := det.ScoreHex(ctx, *bytecode)
		if err != nil {
			return err
		}
		fmt.Println(v)
	case *address != "":
		v, err := det.ScoreAddress(ctx, *address)
		if err != nil {
			return err
		}
		fmt.Printf("%s  %s\n", *address, v)
	default:
		if sim == nil {
			return fmt.Errorf("need -bytecode or -address")
		}
		f := ph.New(*rpcURL, sim.ExplorerURL())
		addrs, err := f.GatherAddresses(ctx, 0, ^uint64(0))
		if err != nil {
			return err
		}
		n := 5
		if len(addrs) < n {
			n = len(addrs)
		}
		for _, a := range addrs[:n] {
			v, err := det.ScoreAddress(ctx, a)
			if err != nil {
				return err
			}
			fmt.Printf("%s  %s\n", a, v)
		}
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	rpcURL, _, seed, start := endpoints(fs)
	detPath := fs.String("detector", "", "saved detector path (default: train fresh on the simulation)")
	model := fs.String("model", "Random Forest", "model to train when no -detector is given")
	listen := fs.String("listen", "127.0.0.1:8980", "HTTP listen address")
	storeDir := fs.String("store", "", "model-store directory: serve its champion through the lifecycle handle and mount the /admin endpoints")
	adminListen := fs.String("admin-listen", "", "separate listener for the /admin endpoints (with -store); empty mounts them on -listen, which exposes model control to every scoring client")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling)")
	role := fs.String("role", "standalone", `cluster role reported on /healthz and /readyz ("replica" when fronted by phishinghook route)`)
	telemetry := fs.Bool("telemetry", false, "stamp evasion telemetry (dead_code_ratio, score_divergence, evasion_suspect) on verdicts and the phishinghook_adversary_* metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sim, err := start()
	if err != nil {
		return err
	}
	if sim != nil {
		defer sim.Close()
	}
	opts := []ph.ServeOption{ph.WithClusterRole(*role)}
	separateAdmin := *storeDir != "" && *adminListen != ""
	if *pprofOn && !separateAdmin {
		opts = append(opts, ph.WithPprof())
	}
	var backend ph.ScoreBackend
	if *storeDir != "" {
		lc, err := openLifecycle(*storeDir, *detPath, *model, *seed, sim, *rpcURL)
		if err != nil {
			return err
		}
		backend = lc.Handle()
		if separateAdmin {
			// The admin surface (and pprof, when enabled) binds the
			// operator-facing listener; the public one only scores. The
			// bind happens synchronously — a server without its admin
			// surface can never apply a retrain, so that must fail startup,
			// not vanish into a goroutine log line.
			adminOpts := []ph.ServeOption{ph.WithLifecycle(lc)}
			if *pprofOn {
				adminOpts = append(adminOpts, ph.WithPprof())
			}
			adminLn, err := net.Listen("tcp", *adminListen)
			if err != nil {
				return fmt.Errorf("bind admin listener: %w", err)
			}
			go func() {
				log.Println(http.Serve(adminLn, ph.NewScoreHandler(backend, adminOpts...)))
			}()
			fmt.Printf("admin endpoints on http://%s/admin/*\n", adminLn.Addr())
		} else {
			opts = append(opts, ph.WithLifecycle(lc))
			fmt.Println("warning: /admin endpoints share the public listener; use -admin-listen to separate them")
		}
		champ, _ := lc.Handle().Champion()
		fmt.Printf("serving %s@%s from store %s on http://%s  (POST /score, GET /healthz, GET /metrics)\n",
			backend.ModelName(), champ, *storeDir, *listen)
	} else {
		var detOpts []ph.DetectorOption
		if *telemetry {
			detOpts = append(detOpts, ph.WithEvasionTelemetry())
		}
		det, err := loadOrTrainDetector(*detPath, *model, *seed, sim, *rpcURL, detOpts...)
		if err != nil {
			return err
		}
		backend = det
		fmt.Printf("serving %s on http://%s  (POST /score, GET /healthz, GET /metrics)\n", det.ModelName(), *listen)
	}
	return serveGracefully(*listen, ph.NewScoreHandler(backend, opts...))
}

// serveGracefully runs the hardened server until SIGTERM/SIGINT, then
// drains: readiness flips unready, the listener closes, and every accepted
// score request completes before the process exits — a replica kill in a
// rolling restart drops nothing.
func serveGracefully(listen string, h http.Handler) error {
	srv := ph.NewServer(listen, h)
	errc, err := srv.Start()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Println("shutting down: draining in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(drainCtx)
}

// cmdRoute runs the scoring cluster's stateless router: consistent-hash
// fan-out of /score across `phishinghook serve -role replica` processes,
// with AIMD windows, hash-neighborhood failover and rolling promote across
// the ring.
func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	replicas := fs.String("replicas", "", "comma-separated replica base URLs (required), e.g. http://127.0.0.1:8981,http://127.0.0.1:8982")
	listen := fs.String("listen", "127.0.0.1:8970", "HTTP listen address")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per replica (default 64)")
	neighborhood := fs.Int("neighborhood", 2, "replicas eligible per key: owner + n-1 ring successors (1 disables failover)")
	hedge := fs.Duration("hedge", 0, "re-issue a straggling sub-request on a second neighborhood replica after this delay (0 disables)")
	maxPending := fs.Int("max-pending", 0, "bytecodes admitted but unanswered before 429 (default 4096)")
	maxConc := fs.Int("max-concurrency", 0, "AIMD window cap per replica (default 64)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicas == "" {
		return fmt.Errorf("route: -replicas is required")
	}
	var bases []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			bases = append(bases, strings.TrimRight(r, "/"))
		}
	}
	rt, err := ph.NewClusterRouter(ph.ClusterConfig{
		Replicas:       bases,
		Vnodes:         *vnodes,
		Neighborhood:   *neighborhood,
		Hedge:          *hedge,
		MaxPending:     *maxPending,
		MaxConcurrency: *maxConc,
	})
	if err != nil {
		return err
	}
	fmt.Printf("routing /score across %d replicas on http://%s  (GET /healthz /metrics, POST /admin/promote for a rolling promote)\n",
		len(bases), *listen)
	return serveGracefully(*listen, rt.Handler())
}

// cmdBackfill scans an arbitrary historical block range — the paper's own
// dataset is a historical crawl, and this is that workload at chain scale:
// shard the range, fan fetches over every available endpoint, score each
// unique bytecode once, and survive restarts via the shard checkpoint.
// loadOrTrainPayloadDetector resolves the calldata-side model: a saved file
// when given, otherwise the Calldata Forest trained on the simulation's
// transaction corpus.
func loadOrTrainPayloadDetector(path string, seed int64, sim *ph.Simulation) (*ph.Detector, error) {
	opts := []ph.DetectorOption{ph.WithDetectorSeed(seed)}
	if path != "" {
		file, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		return ph.LoadDetector(file, opts...)
	}
	if sim == nil {
		return nil, fmt.Errorf("no -payload-detector file and no simulation to train on")
	}
	spec, err := ph.CalldataModel()
	if err != nil {
		return nil, err
	}
	return ph.Train(spec, sim.TxDataset(), opts...)
}

func cmdTxWatch(args []string) error {
	fs := flag.NewFlagSet("txwatch", flag.ExitOnError)
	rpcURL := fs.String("rpc", "", "JSON-RPC endpoint (default: in-process simulation)")
	endpointsFlag := fs.String("endpoints", "", "comma-separated JSON-RPC endpoints to fan polling over (supplements -rpc)")
	seed := fs.Int64("seed", 1, "simulation / experiment seed")
	detPath := fs.String("detector", "", "saved code-side detector (default: train fresh on the released prefix)")
	payloadPath := fs.String("payload-detector", "", "saved calldata-side detector (default: train the Calldata Forest on the simulation's tx corpus)")
	model := fs.String("model", "Random Forest", "code-side model to train when no -detector is given")
	checkpoint := fs.String("checkpoint", "", "tx checkpoint file (exactly-once alerting across restarts; empty = none)")
	alertsPath := fs.String("alerts", "", "append alerts to this JSONL file (always also logged)")
	threshold := fs.Float64("threshold", 0.8, "minimum fused P(phishing) that fires an alert")
	workers := fs.Int("workers", 0, "score workers (default GOMAXPROCS)")
	codeCache := fs.Int("code-cache", 4096, "callee-bytecode LRU entries")
	poll := fs.Duration("poll", 50*time.Millisecond, "longest wait between tx filter polls when no newPendingTransactions notification arrives")
	months := fs.Int("months", 1, "simulated months to watch (simulation mode)")
	tick := fs.Duration("tick", 20*time.Millisecond, "simulated block-clock tick interval")
	blocksPerTick := fs.Int("blocks-per-tick", 4000, "mean blocks released per simulated tick")
	listen := fs.String("listen", "", "optional HTTP address exposing /metrics, /healthz and /score/tx for this watcher")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		sim *ph.Simulation
		err error
	)
	if *rpcURL == "" {
		sim, err = ph.StartSimulation(ph.DefaultSimulationConfig(*seed))
		if err != nil {
			return err
		}
		defer sim.Close()
		*rpcURL = sim.RPCURL()
	}

	cfg := ph.TxWatcherConfig{
		RPCURL:         *rpcURL,
		PollInterval:   *poll,
		ScoreWorkers:   *workers,
		Threshold:      *threshold,
		CheckpointPath: *checkpoint,
		CodeCacheSize:  *codeCache,
	}
	if *endpointsFlag != "" {
		// Fan feed polls and code fetches over the multi-endpoint plane;
		// -rpc joins the pool.
		cfg.RPCURLs = append(cfg.RPCURLs, *rpcURL)
		for _, u := range strings.Split(*endpointsFlag, ",") {
			if u = strings.TrimSpace(u); u != "" && u != *rpcURL {
				cfg.RPCURLs = append(cfg.RPCURLs, u)
			}
		}
	}

	// Simulation mode: switch the chain live at the watch boundary so both
	// detectors train on the released past and the clock replays the rest.
	var clock *ph.LiveClock
	if sim != nil {
		if *months < 1 {
			*months = 1
		}
		if *months > ph.NumMonths {
			*months = ph.NumMonths
		}
		if err := sim.GoLive(ph.NumMonths - *months); err != nil {
			return err
		}
		cfg.StartBlock = sim.HeadBlock()
		cfg.StopAtBlock = sim.TailBlock()
		clock, err = sim.NewClock(ph.LiveClockConfig{
			Seed:          *seed,
			BlocksPerTick: *blocksPerTick,
			JitterBlocks:  *blocksPerTick / 2,
			Interval:      *tick,
		})
		if err != nil {
			return err
		}
	} else {
		// Real endpoints: start at the current head so the first poll judges
		// new transactions instead of replaying history (a checkpoint, when
		// present, still wins).
		head, err := ph.CurrentHead(context.Background(), *rpcURL)
		if err != nil {
			return fmt.Errorf("resolve current head: %w", err)
		}
		cfg.StartBlock = head
	}

	codeDet, err := loadOrTrainDetector(*detPath, *model, *seed, sim, *rpcURL)
	if err != nil {
		return err
	}
	payloadDet, err := loadOrTrainPayloadDetector(*payloadPath, *seed, sim)
	if err != nil {
		return err
	}
	fused, err := ph.NewFusedTxScorer(payloadDet, codeDet)
	if err != nil {
		return err
	}
	fmt.Printf("judging txs with %s + %s fused (threshold %.2f)\n",
		payloadDet.ModelName(), codeDet.ModelName(), *threshold)

	sinks := []ph.AlertSink{ph.NewLogSink(nil)}
	if *alertsPath != "" {
		jsonl, err := ph.OpenJSONLSink(*alertsPath)
		if err != nil {
			return err
		}
		defer jsonl.Close()
		sinks = append(sinks, jsonl)
	}
	cfg.Sinks = sinks

	w, err := ph.NewTxWatcher(fused, cfg)
	if err != nil {
		return err
	}
	if *listen != "" {
		go func() {
			log.Println(http.ListenAndServe(*listen,
				ph.NewScoreHandler(codeDet, ph.WithTxScorer(fused), ph.WithTxWatcher(w))))
		}()
		fmt.Printf("tx counters on http://%s/metrics\n", *listen)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if clock != nil {
		fmt.Printf("replaying blocks %d → %d\n", cfg.StartBlock, cfg.StopAtBlock)
		go clock.Run(ctx)
	}
	t0 := time.Now()
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	s := w.Stats()
	fmt.Printf("judged txs through block %d in %s: %d polls (%d woken by newPendingTransactions), %d txs seen, %d scored, %d dedup hits, %d alerts, %d poisoned, %d errors, score p50=%.2fms p99=%.2fms\n",
		s.Cursor, time.Since(t0).Round(time.Millisecond), s.Polls, s.Wakes, s.TxsSeen, s.TxsScored,
		s.DedupHits, s.Alerts, s.Poisoned, s.Errors, s.ScoreP50MS, s.ScoreP99MS)
	if ctx.Err() != nil && *checkpoint != "" {
		fmt.Printf("interrupted — rerun with -checkpoint %s to resume\n", *checkpoint)
	}
	return nil
}

func cmdBackfill(args []string) error {
	fs := flag.NewFlagSet("backfill", flag.ExitOnError)
	endpointsFlag := fs.String("endpoints", "", "comma-separated JSON-RPC endpoints (default: in-process simulation)")
	explURL := fs.String("explorer", "", "explorer endpoint (default: in-process simulation)")
	seed := fs.Int64("seed", 1, "simulation / experiment seed")
	simEndpoints := fs.Int("sim-endpoints", 3, "simulated RPC endpoints to stand up when -endpoints is empty")
	from := fs.Uint64("from", 0, "first block of the range (default: study-window start in simulation)")
	to := fs.Uint64("to", 0, "last block of the range (default: chain tail in simulation)")
	shards := fs.Int("shards", 4, "parallel range shards")
	window := fs.Uint64("window", 0, "blocks per registry-listing window (default 100000)")
	detPath := fs.String("detector", "", "saved detector path (default: train fresh on the simulation)")
	model := fs.String("model", "Random Forest", "model to train when no -detector is given")
	storeDir := fs.String("store", "", "model-store directory: score through the lifecycle handle (champion serves)")
	checkpoint := fs.String("checkpoint", "", "shard-cursor checkpoint file (resume after restart; empty = none)")
	alertsPath := fs.String("alerts", "", "append alerts to this JSONL file (always also logged)")
	threshold := fs.Float64("threshold", 0.8, "minimum P(phishing) that fires an alert")
	queue := fs.Int("queue", 1024, "score-queue bound (pipeline backpressure)")
	fetchers := fs.Int("fetchers", 0, "bytecode-fetch pool size (default 16)")
	batch := fs.Int("batch", 0, "eth_getCode calls per JSON-RPC batch (default 64)")
	hedge := fs.Duration("hedge", 0, "re-issue straggling fetches on a second endpoint after this delay (0 = off)")
	listen := fs.String("listen", "", "optional HTTP address exposing /metrics and /healthz for this backfill")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		sim  *ph.Simulation
		urls []string
		err  error
	)
	if *endpointsFlag != "" && *explURL != "" {
		for _, u := range strings.Split(*endpointsFlag, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
	} else {
		sim, err = ph.StartSimulation(ph.DefaultSimulationConfig(*seed))
		if err != nil {
			return err
		}
		defer sim.Close()
		*explURL = sim.ExplorerURL()
		n := *simEndpoints
		if n < 1 {
			n = 1
		}
		urls = sim.AddRPCEndpoints(n, 0, 0)
		if *from == 0 {
			*from, _ = sim.StudyWindow()
		}
		if *to == 0 {
			*to = sim.TailBlock()
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("no RPC endpoints")
	}
	if *to == 0 || *from > *to {
		return fmt.Errorf("need a valid -from/-to block range (got [%d, %d])", *from, *to)
	}

	var scorer ph.CodeScorer
	var modelName string
	if *storeDir != "" {
		lc, err := openLifecycle(*storeDir, *detPath, *model, *seed, sim, urls[0])
		if err != nil {
			return err
		}
		scorer = lc.Handle()
		champ, _ := lc.Handle().Champion()
		modelName = fmt.Sprintf("%s@%s (store %s)", lc.Handle().ModelName(), champ, *storeDir)
	} else {
		det, err := loadOrTrainDetector(*detPath, *model, *seed, sim, urls[0])
		if err != nil {
			return err
		}
		scorer = det
		modelName = det.ModelName()
	}

	sinks := []ph.AlertSink{ph.NewLogSink(nil)}
	if *alertsPath != "" {
		jsonl, err := ph.OpenJSONLSink(*alertsPath)
		if err != nil {
			return err
		}
		defer jsonl.Close()
		sinks = append(sinks, jsonl)
	}

	b, err := ph.NewBackfill(scorer, ph.BackfillConfig{
		RPCURLs:        urls,
		Hedge:          *hedge,
		ExplorerURL:    *explURL,
		From:           *from,
		To:             *to,
		Shards:         *shards,
		WindowBlocks:   *window,
		QueueSize:      *queue,
		Fetchers:       *fetchers,
		FetchBatch:     *batch,
		Threshold:      *threshold,
		CheckpointPath: *checkpoint,
		Sinks:          sinks,
	})
	if err != nil {
		return err
	}
	if *listen != "" {
		backend, ok := scorer.(ph.ScoreBackend)
		if !ok {
			return fmt.Errorf("scorer does not serve HTTP")
		}
		go func() {
			log.Println(http.ListenAndServe(*listen, ph.NewScoreHandler(backend, ph.WithBackfill(b))))
		}()
		fmt.Printf("backfill metrics on http://%s/metrics\n", *listen)
	}

	fmt.Printf("backfilling blocks [%d, %d] with %s: %d shards over %d endpoints (threshold %.2f)\n",
		*from, *to, modelName, *shards, len(urls), *threshold)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	t0 := time.Now()
	runErr := b.Run(ctx)
	s := b.Stats()
	elapsed := time.Since(t0)
	fmt.Printf("scanned %d blocks in %s: %d contracts seen, %d scored (%.0f contracts/sec), %d dedup hits, %d alerts, %d errors\n",
		s.BlocksSeen, elapsed.Round(time.Millisecond), s.ContractsSeen, s.ContractsScored,
		float64(s.ContractsSeen)/elapsed.Seconds(), s.DedupHits, s.Alerts, s.Errors)
	for _, ep := range s.Endpoints {
		fmt.Printf("  endpoint %s: %d ok, %d rate-limited, %d timeouts, window %.1f, health %.2f\n",
			ep.URL, ep.Successes, ep.RateLimited, ep.Timeouts, ep.Limit, ep.Health)
	}
	if runErr != nil && ctx.Err() == nil {
		return runErr
	}
	if ctx.Err() != nil && *checkpoint != "" {
		fmt.Printf("interrupted — rerun with -checkpoint %s to resume\n", *checkpoint)
	}
	return nil
}

func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	rpcURL, explURL, seed, start := endpoints(fs)
	endpointsFlag := fs.String("endpoints", "", "comma-separated JSON-RPC endpoints to fan fetches over (supplements -rpc)")
	detPath := fs.String("detector", "", "saved detector path (default: train fresh on the released prefix)")
	model := fs.String("model", "Random Forest", "model to train when no -detector is given")
	storeDir := fs.String("store", "", "model-store directory: watch through the lifecycle handle so retrained versions hot-swap mid-watch")
	checkpoint := fs.String("checkpoint", "", "cursor checkpoint file (resume after restart; empty = none)")
	alertsPath := fs.String("alerts", "", "append alerts to this JSONL file (always also logged)")
	threshold := fs.Float64("threshold", 0.8, "minimum P(phishing) that fires an alert")
	queue := fs.Int("queue", 1024, "score-queue bound (pipeline backpressure)")
	poll := fs.Duration("poll", 100*time.Millisecond, "longest wait between head polls when no newHeads notification arrives")
	months := fs.Int("months", 1, "simulated months to watch (simulation mode)")
	tick := fs.Duration("tick", 20*time.Millisecond, "simulated block-clock tick interval")
	blocksPerTick := fs.Int("blocks-per-tick", 4000, "mean blocks released per simulated tick")
	listen := fs.String("listen", "", "optional HTTP address exposing /metrics and /healthz for this watcher")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof on -listen (profile the live watcher)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sim, err := start()
	if err != nil {
		return err
	}
	if sim != nil {
		defer sim.Close()
	}

	cfg := ph.WatcherConfig{
		RPCURL:         *rpcURL,
		ExplorerURL:    *explURL,
		PollInterval:   *poll,
		QueueSize:      *queue,
		Threshold:      *threshold,
		CheckpointPath: *checkpoint,
	}
	if *endpointsFlag != "" {
		// Fan fetches over the multi-endpoint plane; -rpc joins the pool.
		cfg.RPCURLs = append(cfg.RPCURLs, *rpcURL)
		for _, u := range strings.Split(*endpointsFlag, ",") {
			if u = strings.TrimSpace(u); u != "" && u != *rpcURL {
				cfg.RPCURLs = append(cfg.RPCURLs, u)
			}
		}
	}

	// Simulation mode: switch the chain live at the watch boundary, so the
	// detector trains on the released past and the clock replays the rest.
	var clock *ph.LiveClock
	if sim != nil {
		if *months < 1 {
			*months = 1
		}
		if *months > ph.NumMonths {
			*months = ph.NumMonths
		}
		if err := sim.GoLive(ph.NumMonths - *months); err != nil {
			return err
		}
		cfg.StartBlock = sim.HeadBlock()
		cfg.StopAtBlock = sim.TailBlock()
		clock, err = sim.NewClock(ph.LiveClockConfig{
			Seed:          *seed,
			BlocksPerTick: *blocksPerTick,
			JitterBlocks:  *blocksPerTick / 2,
			Interval:      *tick,
		})
		if err != nil {
			return err
		}
	} else {
		// Real endpoints: a fresh watcher starts at the current head so the
		// first scan monitors new deployments instead of replaying all of
		// chain history (a checkpoint, when present, still wins).
		head, err := ph.CurrentHead(context.Background(), *rpcURL)
		if err != nil {
			return fmt.Errorf("resolve current head: %w", err)
		}
		cfg.StartBlock = head
	}

	var (
		scorer    ph.CodeScorer
		lc        *ph.Lifecycle
		modelName string
	)
	if *storeDir != "" {
		lc, err = openLifecycle(*storeDir, *detPath, *model, *seed, sim, *rpcURL)
		if err != nil {
			return err
		}
		scorer = lc.Handle()
		champ, _ := lc.Handle().Champion()
		modelName = fmt.Sprintf("%s@%s (store %s)", lc.Handle().ModelName(), champ, *storeDir)
	} else {
		det, err := loadOrTrainDetector(*detPath, *model, *seed, sim, *rpcURL)
		if err != nil {
			return err
		}
		scorer = det
		modelName = det.ModelName()
	}
	fmt.Printf("watching with %s (threshold %.2f)\n", modelName, *threshold)

	sinks := []ph.AlertSink{ph.NewLogSink(nil)}
	if *alertsPath != "" {
		jsonl, err := ph.OpenJSONLSink(*alertsPath)
		if err != nil {
			return err
		}
		defer jsonl.Close()
		sinks = append(sinks, jsonl)
	}
	cfg.Sinks = sinks

	w, err := ph.NewWatcher(scorer, cfg)
	if err != nil {
		return err
	}
	if *listen != "" {
		serveOpts := []ph.ServeOption{ph.WithWatcher(w)}
		if *pprofOn {
			serveOpts = append(serveOpts, ph.WithPprof())
		}
		backend, ok := scorer.(ph.ScoreBackend)
		if !ok {
			return fmt.Errorf("scorer does not serve HTTP")
		}
		if lc != nil {
			serveOpts = append(serveOpts, ph.WithLifecycle(lc))
		}
		go func() {
			log.Println(http.ListenAndServe(*listen, ph.NewScoreHandler(backend, serveOpts...)))
		}()
		fmt.Printf("monitor counters on http://%s/metrics\n", *listen)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if clock != nil {
		fmt.Printf("replaying blocks %d → %d\n", cfg.StartBlock, cfg.StopAtBlock)
		go clock.Run(ctx)
	}
	t0 := time.Now()
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	s := w.Stats()
	fmt.Printf("watched %d blocks in %s: %d polls (%d woken by newHeads), %d contracts seen, %d scored, %d dedup hits, %d alerts, %d dropped, %d errors, score p50=%.2fms p99=%.2fms\n",
		s.BlocksSeen, time.Since(t0).Round(time.Millisecond), s.Polls, s.Wakes, s.ContractsSeen, s.ContractsScored,
		s.DedupHits, s.Alerts, s.Dropped, s.Errors, s.ScoreP50MS, s.ScoreP99MS)
	return nil
}

// cmdChaos runs one chaos soak: the chosen pipeline twice over the same
// simulated chain — clean, then under the named fault schedule — and prints
// the lost/duplicate/recovery verdicts.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	scenario := fs.String("scenario", "txwatch", "pipeline under test: txwatch, watch, backfill or cluster")
	schedule := fs.String("schedule", "soak", "fault schedule: "+strings.Join(ph.ChaosScheduleNames(), ", "))
	seed := fs.Int64("seed", 1, "simulation / schedule seed")
	unit := fs.Duration("unit", 250*time.Millisecond, "schedule time unit (window boundaries scale with it)")
	poll := fs.Duration("poll", 0, "watcher poll interval (default unit/10)")
	threshold := fs.Float64("threshold", 0.7, "alert threshold")
	eps := fs.Int("endpoints", 3, "chaos-wrapped RPC endpoints backing the fetch plane")
	replicas := fs.Int("replicas", 3, "scoring replicas (cluster scenario)")
	kill := fs.Bool("kill", true, "kill and resume from checkpoint mid-schedule")
	out := fs.String("out", "", "write the full report JSON here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := ph.DefaultChaosSoakConfig(*seed)
	cfg.Scenario = *scenario
	cfg.Schedule = *schedule
	cfg.Unit = *unit
	cfg.PollInterval = *poll
	cfg.Threshold = *threshold
	cfg.Endpoints = *eps
	cfg.Replicas = *replicas
	cfg.Kill = *kill
	cfg.Logf = log.Printf

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := ph.RunChaosSoak(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("chaos %s/%s: %d baseline alerts, %d under chaos — %d lost, %d duplicate, %d extra\n",
		rep.Scenario, rep.Schedule, rep.BaselineAlerts, rep.Alerts, rep.Lost, rep.Duplicates, rep.Extra)
	fmt.Printf("  wal: %d spilled, %d replayed, %d deduped, %d pending; breaker trips: %d; poison drained: %d\n",
		rep.WAL.Spilled, rep.WAL.Replayed, rep.WAL.Deduped, rep.WAL.Pending, rep.BreakerTrips, rep.PoisonDrained)
	if rep.WatchdogEjections > 0 || rep.DegradedTx > 0 {
		fmt.Printf("  router: %d watchdog ejections, %d degraded tx verdicts\n", rep.WatchdogEjections, rep.DegradedTx)
	}
	switch {
	case rep.RecoveryMS == -1:
		fmt.Println("  recovery: n/a (schedule has no full blackout)")
	case rep.RecoveryMS == -2:
		fmt.Println("  recovery: FAILED — cursor never advanced after blackout")
	default:
		fmt.Printf("  recovery: %.0fms after blackout end (%.1f polling windows)\n", rep.RecoveryMS, rep.RecoveryPolls)
	}
	for kind, n := range rep.Faults {
		fmt.Printf("  fault %-14s ×%d\n", kind, n)
	}
	if *out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if rep.Lost > 0 || rep.Duplicates > 0 {
		return fmt.Errorf("chaos soak failed: %d lost, %d duplicate alerts", rep.Lost, rep.Duplicates)
	}
	return nil
}
