// Command phishinghook is the framework CLI. It drives the four modules
// against JSON-RPC + explorer endpoints or an in-process simulated chain:
//
//	phishinghook gather    — list contract addresses in the study window (➊)
//	phishinghook label     — scrape Phish/Hack flags (➋)
//	phishinghook extract   — fetch bytecode for an address (➌, BEM)
//	phishinghook disasm    — disassemble bytecode to opcodes (➎, BDM)
//	phishinghook dataset   — build the balanced deduplicated dataset (➍)
//	phishinghook evaluate  — cross-validate models on the simulated corpus (➐, MEM)
//
// and the serving workflow built on the Detector API:
//
//	phishinghook train     — fit a Detector and save it to disk
//	phishinghook score     — score bytecode or an address with a Detector
//	phishinghook serve     — expose POST /score over HTTP
//	phishinghook route     — consistent-hash /score across serve replicas
//	phishinghook watch     — follow the chain head and score new deployments
//	phishinghook txwatch   — score the pending-transaction feed, fusing
//	                         calldata and callee-code verdicts
//	phishinghook backfill  — score every deployment in a historical block range
//	phishinghook chaos     — soak a pipeline under a deterministic fault schedule
//	phishinghook retrain   — train a new version into a model store as the
//	                         shadow challenger (or promote/GC the store)
//
// One rule picks the endpoints. With no -rpc, -endpoints or -explorer flag,
// the simulation supplies every endpoint and the training corpus, and starts
// only when the command needs one of them. With any endpoint flag, a command
// that lacks an endpoint it needs fails and names the missing flag, and
// models come from saved files or a model store.
//
// serve, watch and backfill accept -store DIR to score through the
// model-lifecycle handle: the store's champion serves and a challenger
// shadows the same traffic. On serve, and on watch's -listen, the admin
// endpoints (POST /admin/reload, POST /admin/promote, GET /admin/versions)
// hot-swap versions under live load without dropping a score. A typical
// champion/challenger cycle against one store directory:
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
// alerts above the confidence threshold. On the simulation it trains on the
// released past, switches the chain live and replays the remaining months
// under a deterministic block clock:
//
//	phishinghook watch -months 1 -threshold 0.9 -alerts alerts.jsonl \
//	    -checkpoint watch.cursor
//
// Against real endpoints it runs until SIGINT or SIGTERM, resuming from
// -checkpoint after restarts without re-scoring anything.
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

// commands maps each subcommand to its setup, which registers the
// command's flags and returns the function that runs it once they parse.
var commands = map[string]func(fs *flag.FlagSet) func() error{
	"gather":   cmdGather,
	"label":    cmdLabel,
	"extract":  cmdExtract,
	"disasm":   cmdDisasm,
	"dataset":  cmdDataset,
	"evaluate": cmdEvaluate,
	"train":    cmdTrain,
	"score":    cmdScore,
	"serve":    cmdServe,
	"route":    cmdRoute,
	"watch":    cmdWatch,
	"txwatch":  cmdTxWatch,
	"backfill": cmdBackfill,
	"chaos":    cmdChaos,
	"retrain":  cmdRetrain,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("phishinghook: ")
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		usage()
		os.Exit(2)
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	run := commands[os.Args[1]](fs)
	fs.Parse(os.Args[2:]) // ExitOnError: -h exits 0, a bad flag exits 2
	if err := run(); err != nil {
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

// chain is the endpoint group (-seed and whichever of -rpc, -endpoints and
// -explorer a command takes) and the one place that decides between real
// endpoints and the simulation.
type chain struct {
	fs                       *flag.FlagSet
	rpc, endpoints, explorer string
	seed                     int64
	sim                      *ph.Simulation
}

// chainFlags registers -seed and the named endpoint flags.
func chainFlags(fs *flag.FlagSet, names ...string) *chain {
	c := &chain{fs: fs}
	fs.Int64Var(&c.seed, "seed", 1, "simulation / experiment seed")
	for _, name := range names {
		switch name {
		case "rpc":
			fs.StringVar(&c.rpc, name, "", "JSON-RPC endpoint (default: in-process simulation)")
		case "endpoints":
			fs.StringVar(&c.endpoints, name, "", "comma-separated JSON-RPC endpoints to fan fetches over (default: in-process simulation)")
		case "explorer":
			fs.StringVar(&c.explorer, name, "", "explorer endpoint (default: in-process simulation)")
		}
	}
	return c
}

// resolve applies the endpoint rule for a command that needs an RPC
// endpoint, the explorer, or both. With no endpoint flag set the simulation
// supplies them; otherwise each one needed must be given, an RPC endpoint
// by -rpc or -endpoints.
func (c *chain) resolve(rpc, explorer bool) error {
	if !c.given() {
		if rpc || explorer {
			_, err := c.simulation()
			return err
		}
		return nil
	}
	if rpc && len(c.urls()) == 0 {
		return c.missing("rpc", "endpoints")
	}
	if explorer && c.explorer == "" {
		return c.missing("explorer")
	}
	return nil
}

// given reports whether any endpoint flag was set.
func (c *chain) given() bool {
	return c.sim == nil && (c.rpc != "" || c.endpoints != "" || c.explorer != "")
}

func (c *chain) missing(names ...string) error {
	var flags []string
	for _, name := range names {
		if c.fs.Lookup(name) != nil {
			flags = append(flags, "-"+name)
		}
	}
	return fmt.Errorf("%s needs %s when any endpoint flag is given (give none to use the in-process simulation)",
		c.fs.Name(), strings.Join(flags, " or "))
}

// simulation returns the simulation, starting it on first use and pointing
// every endpoint at it. With an endpoint flag set there is none.
func (c *chain) simulation() (*ph.Simulation, error) {
	if c.sim != nil {
		return c.sim, nil
	}
	if c.given() {
		return nil, fmt.Errorf("no simulation to train on when endpoint flags are given")
	}
	sim, err := ph.StartSimulation(ph.DefaultSimulationConfig(c.seed))
	if err != nil {
		return nil, err
	}
	c.sim, c.rpc, c.explorer = sim, sim.RPCURL(), sim.ExplorerURL()
	return sim, nil
}

func (c *chain) close() {
	if c.sim != nil {
		c.sim.Close()
	}
}

// urls lists the RPC endpoints: -rpc, then each -endpoints entry.
func (c *chain) urls() []string {
	var urls []string
	if c.rpc != "" {
		urls = append(urls, c.rpc)
	}
	for _, u := range strings.Split(c.endpoints, ",") {
		if u = strings.TrimSpace(u); u != "" && u != c.rpc {
			urls = append(urls, u)
		}
	}
	return urls
}

// detectorOptions are the options every detector a command loads, trains
// or opens through a model store gets.
func (c *chain) detectorOptions(extra ...ph.DetectorOption) []ph.DetectorOption {
	return append([]ph.DetectorOption{ph.WithDetectorSeed(c.seed), ph.WithRPC(c.rpc)}, extra...)
}

// model is the model group: -detector, -model and, where a command can
// score through a model store, -store.
type model struct {
	detector, name, store string
}

func modelFlags(fs *flag.FlagSet, store bool) *model {
	m := &model{}
	fs.StringVar(&m.detector, "detector", "", "saved detector path (default: train fresh on the simulation)")
	fs.StringVar(&m.name, "model", "Random Forest", "model to train when no -detector is given")
	if store {
		fs.StringVar(&m.store, "store", "", "model-store directory: score with its champion through the lifecycle handle, so promoted versions hot-swap in")
	}
	return m
}

// loadOrTrainDetector resolves one detector: the saved file at path, named
// by -flagName, or else spec trained on the simulation's corpus for it.
func loadOrTrainDetector(ch *chain, flagName, path string, spec func() (ph.ModelSpec, error), corpus func(*ph.Simulation) *ph.Dataset, opts []ph.DetectorOption) (*ph.Detector, error) {
	if path != "" {
		file, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		return ph.LoadDetector(file, opts...)
	}
	sim, err := ch.simulation()
	if err != nil {
		return nil, fmt.Errorf("no -%s file and %w", flagName, err)
	}
	s, err := spec()
	if err != nil {
		return nil, err
	}
	return ph.Train(s, corpus(sim), opts...)
}

// load resolves -detector, or trains -model on the contract corpus.
func (m *model) load(ch *chain, opts []ph.DetectorOption) (*ph.Detector, error) {
	spec := func() (ph.ModelSpec, error) { return ph.ModelByName(m.name) }
	return loadOrTrainDetector(ch, "detector", m.detector, spec, (*ph.Simulation).Dataset, opts)
}

// scorer is what a command scores with: a detector or, with -store, the
// store's champion behind the lifecycle handle.
type scorer struct {
	backend interface {
		ph.ScoreBackend
		ph.CodeScorer
	}
	lc   *ph.Lifecycle
	name string
}

// resolve is the scorer resolver. With -store it opens the store with the
// same options as a detector gets; an empty store is seeded by loading or
// training a detector and deploying it as v0001, so a blank directory works.
func (m *model) resolve(ch *chain, extra ...ph.DetectorOption) (scorer, error) {
	opts := ch.detectorOptions(extra...)
	if m.store == "" {
		det, err := m.load(ch, opts)
		if err != nil {
			return scorer{}, err
		}
		return scorer{backend: det, name: det.ModelName()}, nil
	}
	store, err := ph.OpenModelStore(m.store)
	if err != nil {
		return scorer{}, err
	}
	lc, err := ph.NewLifecycle(store, opts...)
	if err != nil {
		return scorer{}, err
	}
	if _, det := lc.Handle().Champion(); det == nil {
		seedDet, err := m.load(ch, opts)
		if err != nil {
			return scorer{}, err
		}
		v, err := lc.SaveVersion(seedDet, ph.ModelMeta{
			TrainFrom: 0, TrainTo: ph.NumMonths - 1, Note: "initial deployment",
		})
		if err != nil {
			return scorer{}, err
		}
		if err := lc.Deploy(v.ID); err != nil {
			return scorer{}, err
		}
		fmt.Printf("seeded model store %s with %s (%s)\n", m.store, v.ID, seedDet.ModelName())
	}
	champ, _ := lc.Handle().Champion()
	return scorer{backend: lc.Handle(), lc: lc,
		name: fmt.Sprintf("%s@%s (store %s)", lc.Handle().ModelName(), champ, m.store)}, nil
}

func cmdGather(fs *flag.FlagSet) func() error {
	ch := chainFlags(fs, "rpc", "explorer")
	limit := fs.Int("limit", 20, "print at most this many addresses (0 = all)")
	return func() error {
		defer ch.close()
		if err := ch.resolve(false, true); err != nil {
			return err
		}
		addrs, err := ph.New(ch.rpc, ch.explorer).GatherAddresses(context.Background(), 0, ^uint64(0))
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
}

func cmdLabel(fs *flag.FlagSet) func() error {
	ch := chainFlags(fs, "rpc", "explorer")
	address := fs.String("address", "", "contract address (required with -rpc/-explorer; default: first simulated phishing hit)")
	return func() error {
		defer ch.close()
		if err := ch.resolve(false, true); err != nil {
			return err
		}
		f := ph.New(ch.rpc, ch.explorer)
		ctx := context.Background()
		addrs := []string{*address}
		if *address == "" {
			all, err := f.GatherAddresses(ctx, 0, ^uint64(0))
			if err != nil {
				return err
			}
			addrs = all[:min(10, len(all))]
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
}

func cmdExtract(fs *flag.FlagSet) func() error {
	ch := chainFlags(fs, "rpc", "explorer")
	address := fs.String("address", "", "contract address (default: first simulated contract)")
	return func() error {
		defer ch.close()
		if err := ch.resolve(true, *address == ""); err != nil {
			return err
		}
		f := ph.New(ch.rpc, ch.explorer)
		ctx := context.Background()
		if *address == "" {
			all, err := f.GatherAddresses(ctx, 0, ^uint64(0))
			if err != nil {
				return err
			}
			if len(all) == 0 {
				return fmt.Errorf("no contracts listed")
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
}

func cmdDisasm(fs *flag.FlagSet) func() error {
	hexCode := fs.String("bytecode", "0x6080604052", "hex bytecode to disassemble")
	return func() error {
		code, err := ph.DecodeHex(*hexCode)
		if err != nil {
			return err
		}
		for _, in := range ph.Disassemble(code) {
			fmt.Printf("%06x  %s\n", in.Offset, in)
		}
		return nil
	}
}

func cmdDataset(fs *flag.FlagSet) func() error {
	ch := chainFlags(fs, "rpc", "explorer")
	out := fs.String("o", "dataset.csv", "output CSV path")
	return func() error {
		defer ch.close()
		if err := ch.resolve(true, true); err != nil {
			return err
		}
		ds, err := ph.New(ch.rpc, ch.explorer).BuildDataset(context.Background(), 0, ^uint64(0), ch.seed)
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
}

func cmdEvaluate(fs *flag.FlagSet) func() error {
	ch := chainFlags(fs)
	modelsFlag := fs.String("models", "Random Forest", "comma-separated model names, or 'all'")
	folds := fs.Int("folds", 3, "cross-validation folds")
	runs := fs.Int("runs", 1, "cross-validation runs")
	return func() error {
		defer ch.close()
		sim, err := ch.simulation()
		if err != nil {
			return err
		}
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
		t0 := time.Now()
		results, err := ph.New(ch.rpc, ch.explorer).Evaluate(specs, sim.Dataset(), ph.CVConfig{Folds: *folds, Runs: *runs, Seed: ch.seed})
		if err != nil {
			return err
		}
		ph.RenderTable2(os.Stdout, results)
		fmt.Printf("\nevaluated in %s\n", time.Since(t0).Round(time.Millisecond))
		return nil
	}
}

func cmdTrain(fs *flag.FlagSet) func() error {
	ch := chainFlags(fs)
	modelName := fs.String("model", "Random Forest", "model name (see 'evaluate -models all')")
	out := fs.String("o", "detector.bin", "output detector path")
	harden := fs.Bool("harden", false, "adversarially harden: canonical (reachable-only) featurization + mutated-phishing training augmentation; the mode persists in the saved detector")
	return func() error {
		defer ch.close()
		sim, err := ch.simulation()
		if err != nil {
			return err
		}
		spec, err := ph.ModelByName(*modelName)
		if err != nil {
			return err
		}
		ds := sim.Dataset()
		t0 := time.Now()
		var hardening []ph.DetectorOption
		if *harden {
			hardening = []ph.DetectorOption{ph.WithCanonicalFeatures(), ph.WithAdversarialAugment(0.5)}
		}
		det, err := ph.Train(spec, ds, ch.detectorOptions(hardening...)...)
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

func cmdRetrain(fs *flag.FlagSet) func() error {
	ch := chainFlags(fs)
	storeDir := fs.String("store", "models", "model-store directory")
	modelName := fs.String("model", "", "model name (default: the champion's spec, or Random Forest)")
	from := fs.Int("from", 0, "first training month")
	to := fs.Int("to", ph.NumMonths-1, "last training month")
	note := fs.String("note", "", "free-form provenance note recorded on the version")
	promote := fs.Bool("promote", false, "promote the store's challenger instead of training")
	gc := fs.Int("gc", 0, "after any action, drop all but the newest N versions (champion/challenger always kept; 0 keeps all)")
	ifDrifted := fs.Bool("if-drifted", false, "retrain only when the champion's score distribution on [-from,-to] drifted from its own training window (PSI)")
	psi := fs.Float64("psi", 0.25, "PSI threshold for -if-drifted")
	return func() error {
		defer ch.close()

		store, err := ph.OpenModelStore(*storeDir)
		if err != nil {
			return err
		}
		if *promote {
			chal, ok := store.Challenger()
			if !ok {
				return fmt.Errorf("store %s has no challenger to promote", *storeDir)
			}
			if err := store.Promote(chal.ID); err != nil {
				return err
			}
			fmt.Printf("promoted %s (%s) to champion; a running server applies it via POST /admin/reload\n", chal.ID, chal.Spec)
			return runStoreGC(store, *gc)
		}

		sim, err := ch.simulation()
		if err != nil {
			return err
		}
		if *from < 0 || *to >= ph.NumMonths || *from > *to {
			return fmt.Errorf("month window [%d,%d] outside [0,%d]", *from, *to, ph.NumMonths-1)
		}
		window := sim.Dataset().MonthRange(*from, *to)
		if window.Len() == 0 {
			return fmt.Errorf("no samples in months [%d,%d]", *from, *to)
		}

		champ, hasChamp := store.Champion()
		spec := *modelName
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
		opts := ch.detectorOptions()
		lc, err := ph.NewLifecycle(store, opts...)
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
		det, err := ph.Train(modelSpec, window, opts...)
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

func cmdScore(fs *flag.FlagSet) func() error {
	ch := chainFlags(fs, "rpc")
	m := modelFlags(fs, false)
	bytecode := fs.String("bytecode", "", "hex bytecode to score")
	address := fs.String("address", "", "contract address to score via eth_getCode")
	return func() error {
		defer ch.close()
		// Without -bytecode or -address, score lists the first simulated
		// contracts, which takes the simulation's explorer.
		listing := *bytecode == "" && *address == ""
		if listing && ch.rpc != "" {
			return fmt.Errorf("need -bytecode or -address")
		}
		if err := ch.resolve(*bytecode == "", listing); err != nil {
			return err
		}
		det, err := m.load(ch, ch.detectorOptions())
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
			return nil
		case *address != "":
			v, err := det.ScoreAddress(ctx, *address)
			if err != nil {
				return err
			}
			fmt.Printf("%s  %s\n", *address, v)
			return nil
		}
		addrs, err := ph.New(ch.rpc, ch.explorer).GatherAddresses(ctx, 0, ^uint64(0))
		if err != nil {
			return err
		}
		for _, a := range addrs[:min(5, len(addrs))] {
			v, err := det.ScoreAddress(ctx, a)
			if err != nil {
				return err
			}
			fmt.Printf("%s  %s\n", a, v)
		}
		return nil
	}
}

func cmdServe(fs *flag.FlagSet) func() error {
	ch := chainFlags(fs)
	m := modelFlags(fs, true)
	listen := fs.String("listen", "127.0.0.1:8980", "HTTP listen address")
	adminListen := fs.String("admin-listen", "", "separate listener for the /admin endpoints (with -store); empty mounts them on -listen, which exposes model control to every scoring client")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling)")
	role := fs.String("role", "standalone", `cluster role reported on /healthz and /readyz ("replica" when fronted by phishinghook route)`)
	telemetry := fs.Bool("telemetry", false, "stamp evasion telemetry (dead_code_ratio, score_divergence, evasion_suspect) on verdicts and the phishinghook_adversary_* metrics")
	return func() error {
		defer ch.close()
		var extra []ph.DetectorOption
		if *telemetry {
			extra = append(extra, ph.WithEvasionTelemetry())
		}
		sc, err := m.resolve(ch, extra...)
		if err != nil {
			return err
		}
		opts := []ph.ServeOption{ph.WithClusterRole(*role)}
		separateAdmin := sc.lc != nil && *adminListen != ""
		if *pprofOn && !separateAdmin {
			opts = append(opts, ph.WithPprof())
		}
		switch {
		case separateAdmin:
			// The admin surface (and pprof, when enabled) binds the
			// operator-facing listener; the public one only scores. The bind
			// happens synchronously — a server without its admin surface can
			// never apply a retrain, so that must fail startup, not vanish into
			// a goroutine log line.
			adminOpts := []ph.ServeOption{ph.WithLifecycle(sc.lc)}
			if *pprofOn {
				adminOpts = append(adminOpts, ph.WithPprof())
			}
			adminLn, err := net.Listen("tcp", *adminListen)
			if err != nil {
				return fmt.Errorf("bind admin listener: %w", err)
			}
			go func() {
				log.Println(http.Serve(adminLn, ph.NewScoreHandler(sc.backend, adminOpts...)))
			}()
			fmt.Printf("admin endpoints on http://%s/admin/*\n", adminLn.Addr())
		case sc.lc != nil:
			opts = append(opts, ph.WithLifecycle(sc.lc))
			fmt.Println("warning: /admin endpoints share the public listener; use -admin-listen to separate them")
		}
		fmt.Printf("serving %s on http://%s  (POST /score, GET /healthz, GET /metrics)\n", sc.name, *listen)
		return serveGracefully(*listen, ph.NewScoreHandler(sc.backend, opts...))
	}
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
func cmdRoute(fs *flag.FlagSet) func() error {
	var cfg ph.ClusterConfig
	replicas := fs.String("replicas", "", "comma-separated replica base URLs (required), e.g. http://127.0.0.1:8981,http://127.0.0.1:8982")
	listen := fs.String("listen", "127.0.0.1:8970", "HTTP listen address")
	fs.IntVar(&cfg.Vnodes, "vnodes", 0, "virtual nodes per replica (default 64)")
	fs.IntVar(&cfg.Neighborhood, "neighborhood", 2, "replicas eligible per key: owner + n-1 ring successors (1 disables failover)")
	fs.DurationVar(&cfg.Hedge, "hedge", 0, "re-issue a straggling sub-request on a second neighborhood replica after this delay (0 disables)")
	fs.IntVar(&cfg.MaxPending, "max-pending", 0, "bytecodes admitted but unanswered before 429 (default 4096)")
	fs.IntVar(&cfg.MaxConcurrency, "max-concurrency", 0, "AIMD window cap per replica (default 64)")
	return func() error {
		for _, r := range strings.Split(*replicas, ",") {
			if r = strings.TrimSpace(r); r != "" {
				cfg.Replicas = append(cfg.Replicas, strings.TrimRight(r, "/"))
			}
		}
		if len(cfg.Replicas) == 0 {
			return fmt.Errorf("route: -replicas is required")
		}
		rt, err := ph.NewClusterRouter(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("routing /score across %d replicas on http://%s  (GET /healthz /metrics, POST /admin/promote for a rolling promote)\n",
			len(cfg.Replicas), *listen)
		return serveGracefully(*listen, rt.Handler())
	}
}

// loop is what watch, txwatch and backfill share beyond their config: the
// alerting group (-threshold and -checkpoint, bound into the config, and
// -alerts), the side-listener group (-listen and, on watch, -pprof), and
// the one path that runs them.
type loop struct {
	checkpoint *string
	alerts     string
	listen     string
	pprof      bool
}

func loopFlags(fs *flag.FlagSet, threshold *float64, checkpoint *string, pprof bool) *loop {
	l := &loop{checkpoint: checkpoint}
	fs.Float64Var(threshold, "threshold", 0.8, "minimum P(phishing) that fires an alert")
	fs.StringVar(checkpoint, "checkpoint", "", "checkpoint file: a rerun resumes from it without re-alerting (empty = none)")
	fs.StringVar(&l.alerts, "alerts", "", "append alerts to this JSONL file (always also logged)")
	fs.StringVar(&l.listen, "listen", "", "optional HTTP address serving /metrics, /healthz and the scoring endpoints for this run")
	if pprof {
		fs.BoolVar(&l.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ on -listen (profiling)")
	}
	return l
}

// ingest is one built loop as run drives it: its Run, the backend and
// options its -listen handler serves, and its summary line.
type ingest struct {
	run     func(context.Context) error
	backend ph.ScoreBackend
	serve   []ph.ServeOption
	summary func(elapsed time.Duration)
}

// run is the one path watch, txwatch and backfill run through. It opens the
// alert sinks and builds the loop over them, serves the loop on -listen,
// ticks the simulated clock when there is one, and runs the loop until it
// ends or SIGINT or SIGTERM cancels it. Either way Run returns, so its final
// checkpoint save happens, and the summary prints.
func (l *loop) run(clock *ph.LiveClock, build func(sinks []ph.AlertSink) (ingest, error)) error {
	sinks := []ph.AlertSink{ph.NewLogSink(nil)}
	if l.alerts != "" {
		jsonl, err := ph.OpenJSONLSink(l.alerts)
		if err != nil {
			return err
		}
		defer jsonl.Close()
		sinks = append(sinks, jsonl)
	}
	in, err := build(sinks)
	if err != nil {
		return err
	}
	if l.listen != "" {
		// Bound here, not in the goroutine: a run asked for its counters
		// must not go on without them.
		ln, err := net.Listen("tcp", l.listen)
		if err != nil {
			return fmt.Errorf("bind -listen: %w", err)
		}
		if l.pprof {
			in.serve = append(in.serve, ph.WithPprof())
		}
		go func() {
			log.Println(http.Serve(ln, ph.NewScoreHandler(in.backend, in.serve...)))
		}()
		fmt.Printf("counters on http://%s/metrics\n", ln.Addr())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if clock != nil {
		go clock.Run(ctx)
	}
	t0 := time.Now()
	err = in.run(ctx)
	in.summary(time.Since(t0))
	if ctx.Err() == nil {
		return err
	}
	if *l.checkpoint != "" {
		fmt.Printf("interrupted — rerun with -checkpoint %s to resume\n", *l.checkpoint)
	}
	return nil
}

// replay is the simulated-replay group: -months, -tick, -blocks-per-tick,
// and the loop's -poll.
type replay struct {
	months int
	clock  ph.LiveClockConfig
}

// replayFlags registers the group, with -poll bound into the loop's config
// and defaulting to its current value.
func replayFlags(fs *flag.FlagSet, poll *time.Duration) *replay {
	r := &replay{}
	fs.IntVar(&r.months, "months", 1, "simulated months to watch (simulation mode)")
	fs.DurationVar(&r.clock.Interval, "tick", 20*time.Millisecond, "simulated block-clock tick interval")
	fs.IntVar(&r.clock.BlocksPerTick, "blocks-per-tick", 4000, "mean blocks released per simulated tick")
	fs.DurationVar(poll, "poll", *poll, "longest wait between polls when no eth_subscribe notification arrives")
	return r
}

// start returns the blocks a watcher starts after and stops at. On the
// simulation it switches the chain live -months before its tail, so models
// trained afterwards see only the released past, and returns the clock that
// replays the rest. On real endpoints it starts at the current head, so the
// first poll judges new work instead of replaying history (a checkpoint,
// when present, still wins), and runs until stopped.
func (r *replay) start(ch *chain) (from, stop uint64, clock *ph.LiveClock, err error) {
	if ch.sim == nil {
		head, err := ph.CurrentHead(context.Background(), ch.urls()[0])
		if err != nil {
			return 0, 0, nil, fmt.Errorf("resolve current head: %w", err)
		}
		return head, 0, nil, nil
	}
	if err := ch.sim.GoLive(ph.NumMonths - min(max(r.months, 1), ph.NumMonths)); err != nil {
		return 0, 0, nil, err
	}
	r.clock.Seed = ch.seed
	r.clock.JitterBlocks = r.clock.BlocksPerTick / 2
	if clock, err = ch.sim.NewClock(r.clock); err != nil {
		return 0, 0, nil, err
	}
	from, stop = ch.sim.HeadBlock(), ch.sim.TailBlock()
	fmt.Printf("replaying blocks %d → %d\n", from, stop)
	return from, stop, clock, nil
}

func cmdWatch(fs *flag.FlagSet) func() error {
	ch := chainFlags(fs, "rpc", "endpoints", "explorer")
	m := modelFlags(fs, true)
	cfg := ph.WatcherConfig{PollInterval: 100 * time.Millisecond}
	lp := loopFlags(fs, &cfg.Threshold, &cfg.CheckpointPath, true)
	rp := replayFlags(fs, &cfg.PollInterval)
	fs.IntVar(&cfg.QueueSize, "queue", 1024, "score-queue bound (pipeline backpressure)")
	return func() error {
		defer ch.close()
		if err := ch.resolve(true, true); err != nil {
			return err
		}
		cfg.RPCURLs, cfg.ExplorerURL = ch.urls(), ch.explorer
		from, stop, clock, err := rp.start(ch)
		if err != nil {
			return err
		}
		cfg.StartBlock, cfg.StopAtBlock = from, stop
		sc, err := m.resolve(ch)
		if err != nil {
			return err
		}
		fmt.Printf("watching with %s (threshold %.2f)\n", sc.name, cfg.Threshold)
		return lp.run(clock, func(sinks []ph.AlertSink) (ingest, error) {
			cfg.Sinks = sinks
			w, err := ph.NewWatcher(sc.backend, cfg)
			if err != nil {
				return ingest{}, err
			}
			serve := []ph.ServeOption{ph.WithWatcher(w)}
			if sc.lc != nil {
				serve = append(serve, ph.WithLifecycle(sc.lc))
			}
			return ingest{w.Run, sc.backend, serve, func(elapsed time.Duration) {
				s := w.Stats()
				fmt.Printf("watched %d blocks in %s: %d polls (%d woken by newHeads), %d contracts seen, %d scored, %d dedup hits, %d alerts, %d dropped, %d errors, score p50=%.2fms p99=%.2fms\n",
					s.BlocksSeen, elapsed.Round(time.Millisecond), s.Polls, s.Wakes, s.ContractsSeen, s.ContractsScored,
					s.DedupHits, s.Alerts, s.Dropped, s.Errors, s.ScoreP50MS, s.ScoreP99MS)
			}}, nil
		})
	}
}

func cmdTxWatch(fs *flag.FlagSet) func() error {
	ch := chainFlags(fs, "rpc", "endpoints")
	m := modelFlags(fs, false)
	payloadPath := fs.String("payload-detector", "", "saved calldata-side detector (default: train the Calldata Forest on the simulation's tx corpus)")
	cfg := ph.TxWatcherConfig{PollInterval: 50 * time.Millisecond}
	lp := loopFlags(fs, &cfg.Threshold, &cfg.CheckpointPath, false)
	rp := replayFlags(fs, &cfg.PollInterval)
	fs.IntVar(&cfg.ScoreWorkers, "workers", 0, "score workers (default GOMAXPROCS)")
	fs.IntVar(&cfg.CodeCacheSize, "code-cache", 4096, "callee-bytecode LRU entries")
	return func() error {
		defer ch.close()
		if err := ch.resolve(true, false); err != nil {
			return err
		}
		cfg.RPCURLs = ch.urls()
		from, stop, clock, err := rp.start(ch)
		if err != nil {
			return err
		}
		cfg.StartBlock, cfg.StopAtBlock = from, stop
		code, err := m.resolve(ch)
		if err != nil {
			return err
		}
		payload, err := loadOrTrainDetector(ch, "payload-detector", *payloadPath, ph.CalldataModel, (*ph.Simulation).TxDataset, ch.detectorOptions())
		if err != nil {
			return err
		}
		fused, err := ph.NewFusedTxScorer(payload, code.backend)
		if err != nil {
			return err
		}
		fmt.Printf("judging txs with %s + %s fused (threshold %.2f)\n", payload.ModelName(), code.name, cfg.Threshold)
		return lp.run(clock, func(sinks []ph.AlertSink) (ingest, error) {
			cfg.Sinks = sinks
			w, err := ph.NewTxWatcher(fused, cfg)
			if err != nil {
				return ingest{}, err
			}
			return ingest{w.Run, code.backend, []ph.ServeOption{ph.WithTxScorer(fused), ph.WithTxWatcher(w)}, func(elapsed time.Duration) {
				s := w.Stats()
				fmt.Printf("judged txs through block %d in %s: %d polls (%d woken by newPendingTransactions), %d txs seen, %d scored, %d dedup hits, %d alerts, %d poisoned, %d errors, score p50=%.2fms p99=%.2fms\n",
					s.Cursor, elapsed.Round(time.Millisecond), s.Polls, s.Wakes, s.TxsSeen, s.TxsScored,
					s.DedupHits, s.Alerts, s.Poisoned, s.Errors, s.ScoreP50MS, s.ScoreP99MS)
			}}, nil
		})
	}
}

// cmdBackfill scans an arbitrary historical block range — the paper's own
// dataset is a historical crawl, and this is that workload at chain scale:
// shard the range, fan fetches over every available endpoint, score each
// unique bytecode once, and survive restarts via the shard checkpoint.
func cmdBackfill(fs *flag.FlagSet) func() error {
	ch := chainFlags(fs, "endpoints", "explorer")
	m := modelFlags(fs, true)
	var cfg ph.BackfillConfig
	lp := loopFlags(fs, &cfg.Threshold, &cfg.CheckpointPath, false)
	simEndpoints := fs.Int("sim-endpoints", 3, "simulated RPC endpoints to stand up when -endpoints is empty")
	fs.Uint64Var(&cfg.From, "from", 0, "first block of the range (default: study-window start in simulation)")
	fs.Uint64Var(&cfg.To, "to", 0, "last block of the range (default: chain tail in simulation)")
	fs.IntVar(&cfg.Shards, "shards", 4, "parallel range shards")
	fs.Uint64Var(&cfg.WindowBlocks, "window", 0, "blocks per registry-listing window (default 100000)")
	fs.IntVar(&cfg.QueueSize, "queue", 1024, "score-queue bound (pipeline backpressure)")
	fs.IntVar(&cfg.Fetchers, "fetchers", 0, "bytecode-fetch pool size (default 16)")
	fs.IntVar(&cfg.FetchBatch, "batch", 0, "eth_getCode calls per JSON-RPC batch (default 64)")
	fs.DurationVar(&cfg.Hedge, "hedge", 0, "re-issue straggling fetches on a second endpoint after this delay (0 = off)")
	return func() error {
		defer ch.close()
		if err := ch.resolve(true, true); err != nil {
			return err
		}
		cfg.RPCURLs, cfg.ExplorerURL = ch.urls(), ch.explorer
		if ch.sim != nil {
			cfg.RPCURLs = ch.sim.AddRPCEndpoints(max(*simEndpoints, 1), 0, 0)
			if cfg.From == 0 {
				cfg.From, _ = ch.sim.StudyWindow()
			}
			if cfg.To == 0 {
				cfg.To = ch.sim.TailBlock()
			}
		}
		if cfg.To == 0 || cfg.From > cfg.To {
			return fmt.Errorf("need a valid -from/-to block range (got [%d, %d])", cfg.From, cfg.To)
		}
		sc, err := m.resolve(ch)
		if err != nil {
			return err
		}
		fmt.Printf("backfilling blocks [%d, %d] with %s: %d shards over %d endpoints (threshold %.2f)\n",
			cfg.From, cfg.To, sc.name, cfg.Shards, len(cfg.RPCURLs), cfg.Threshold)
		return lp.run(nil, func(sinks []ph.AlertSink) (ingest, error) {
			cfg.Sinks = sinks
			b, err := ph.NewBackfill(sc.backend, cfg)
			if err != nil {
				return ingest{}, err
			}
			return ingest{b.Run, sc.backend, []ph.ServeOption{ph.WithBackfill(b)}, func(elapsed time.Duration) {
				s := b.Stats()
				fmt.Printf("scanned %d blocks in %s: %d contracts seen, %d scored (%.0f contracts/sec), %d dedup hits, %d alerts, %d errors\n",
					s.BlocksSeen, elapsed.Round(time.Millisecond), s.ContractsSeen, s.ContractsScored,
					float64(s.ContractsSeen)/elapsed.Seconds(), s.DedupHits, s.Alerts, s.Errors)
				for _, ep := range s.Endpoints {
					fmt.Printf("  endpoint %s: %d ok, %d rate-limited, %d timeouts, window %.1f, health %.2f\n",
						ep.URL, ep.Successes, ep.RateLimited, ep.Timeouts, ep.Limit, ep.Health)
				}
			}}, nil
		})
	}
}

// cmdChaos runs one chaos soak: the chosen pipeline twice over the same
// simulated chain — clean, then under the named fault schedule — and prints
// the lost/duplicate/recovery verdicts.
func cmdChaos(fs *flag.FlagSet) func() error {
	cfg := ph.DefaultChaosSoakConfig(1)
	cfg.Logf = log.Printf
	fs.StringVar(&cfg.Scenario, "scenario", cfg.Scenario, "pipeline under test: txwatch, watch, backfill or cluster")
	fs.StringVar(&cfg.Schedule, "schedule", cfg.Schedule, "fault schedule: "+strings.Join(ph.ChaosScheduleNames(), ", "))
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "simulation / schedule seed")
	fs.DurationVar(&cfg.Unit, "unit", cfg.Unit, "schedule time unit (window boundaries scale with it)")
	fs.DurationVar(&cfg.PollInterval, "poll", cfg.PollInterval, "watcher poll interval (default unit/10)")
	fs.Float64Var(&cfg.Threshold, "threshold", cfg.Threshold, "alert threshold")
	fs.IntVar(&cfg.Endpoints, "endpoints", cfg.Endpoints, "chaos-wrapped RPC endpoints backing the fetch plane")
	fs.IntVar(&cfg.Replicas, "replicas", cfg.Replicas, "scoring replicas (cluster scenario)")
	fs.BoolVar(&cfg.Kill, "kill", cfg.Kill, "kill and resume from checkpoint mid-schedule")
	out := fs.String("out", "", "write the full report JSON here")
	return func() error {
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
}
