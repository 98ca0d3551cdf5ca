package sim

import (
	"reflect"
	"testing"

	"slider/internal/mapreduce"
	"slider/internal/sliderrt"
)

func TestGenerateChaosIsDeterministic(t *testing.T) {
	for _, kind := range Kinds() {
		a := GenerateChaos(kind, 42, 200)
		b := GenerateChaos(kind, 42, 200)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: GenerateChaos is not deterministic", kind)
		}
		if !a.Chaos {
			t.Fatalf("%v: chaos trace not marked", kind)
		}
		workerOps := 0
		for _, op := range a.Ops {
			switch op.Kind {
			case OpWorkerCrash, OpWorkerRestart, OpWorkerDelay, OpWorkerDrop, OpWorkerCorrupt:
				workerOps++
				if op.Node < 0 || op.Node >= chaosWorkers {
					t.Fatalf("%v: worker op targets node %d", kind, op.Node)
				}
			}
		}
		if workerOps == 0 {
			t.Fatalf("%v: chaos trace has no worker fault ops", kind)
		}
	}
}

// TestGenerateUnchangedByChaosOps pins Generate's output: adding the
// chaos generator must not perturb the existing seed matrix (replay
// lines from old CI logs stay valid).
func TestGenerateUnchangedByChaosOps(t *testing.T) {
	tr := Generate(Folding, 42, 100)
	for _, op := range tr.Ops {
		switch op.Kind {
		case OpWorkerCrash, OpWorkerRestart, OpWorkerDelay, OpWorkerDrop, OpWorkerCorrupt:
			t.Fatalf("Generate emitted dist fault op %v", op.Kind)
		}
	}
	if tr.Chaos {
		t.Fatal("Generate marked its trace as chaos")
	}
}

// TestChaosSeedMatrix is the acceptance check for the fault-tolerance
// layer: every trace kind, driven through the full runtime with its map
// phase on a real dist worker cluster, while the trace crashes and
// restarts workers, delays, drops, and corrupts responses, and fails
// memo replica sets — and every slide must still match the from-scratch
// differential oracle at parallelism 1, 4, and 8, with no slide ever
// returning an error (the degradation ladder absorbs everything).
func TestChaosSeedMatrix(t *testing.T) {
	steps := 35
	if testing.Short() {
		steps = 12
	}
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range simSeeds[:2] {
				tr := GenerateChaos(kind, seed, steps)
				opts := Options{Layer: LayerRuntime, Pars: []int{1, 4, 8}, DistFaults: true}
				if err := Run(tr, opts); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestChaosClusterCountsFaults drives the runtime over the chaos
// cluster with faults armed by hand and checks the accounting: every
// injected fault class shows up in the shared FaultRecorder, and the
// window result still matches the from-scratch oracle.
func TestChaosClusterCountsFaults(t *testing.T) {
	chaos, err := newChaosCluster(chaosWorkers, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer chaos.Close()

	gcAll := new(bool)
	cfg, err := runtimeConfig(Trace{Kind: Folding, Seed: 7, Initial: 6}, 4, gcAll)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MapRunner = chaos.pool
	rt, err := sliderrt.New(simJob(7), cfg)
	if err != nil {
		t.Fatal(err)
	}

	var window []mapreduce.Split
	var nextID uint64
	take := func(n int) []mapreduce.Split {
		out := make([]mapreduce.Split, n)
		for i := range out {
			out[i] = genSplit(7, nextID)
			nextID++
		}
		return out
	}
	window = take(6)
	if _, err := rt.Initial(window); err != nil {
		t.Fatal(err)
	}

	advance := func() {
		t.Helper()
		adds := take(2)
		res, err := rt.Advance(2, adds)
		if err != nil {
			t.Fatalf("advance: %v", err)
		}
		window = append(window[2:], adds...)
		want, err := mapreduce.RunScratch(simJob(7), window, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if msg := diffOutputs(res.Output, want); msg != "" {
			t.Fatalf("output diverges from oracle: %s", msg)
		}
	}

	for i := 0; i < chaosWorkers; i++ {
		chaos.worker(i).Faults().InjectDrop()
	}
	advance()
	for i := 0; i < chaosWorkers; i++ {
		chaos.worker(i).Faults().InjectCorrupt()
	}
	advance()
	// Arm every worker: round-robin assignment means a single armed
	// worker may simply never receive a task in a two-split batch.
	for i := 0; i < chaosWorkers; i++ {
		chaos.worker(i).Faults().InjectDelay(chaosDelay)
	}
	advance()

	st := chaos.pool.FaultStats()
	t.Logf("%s", chaos.faultLine())
	if st.Retries == 0 {
		t.Error("dropped responses caused no retries")
	}
	if st.CorruptFrames == 0 {
		t.Error("corrupted responses were not detected")
	}
	if st.HedgesLaunched == 0 && st.DeadlinesExpired == 0 {
		t.Error("delayed worker triggered neither a hedge nor a deadline")
	}
}

// TestChaosOpsIgnoredWithoutDistFaults: the same chaos trace must be
// runnable at the runtime layer without a worker cluster (worker ops are
// no-ops), which keeps shrunken reproducers portable.
func TestChaosOpsIgnoredWithoutDistFaults(t *testing.T) {
	tr := GenerateChaos(Folding, 3, 25)
	if err := Run(tr, Options{Layer: LayerRuntime, Pars: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := Run(tr, Options{}); err != nil { // tree layer too
		t.Fatal(err)
	}
}

// TestChaosWorkersServeDeclaredSum: the chaos cluster's workers serve the sim
// job declared SumInt64 wherever its values are plain int64s, the
// declaration holds (CheckJob), and a declared map task gives what the
// replicas' undeclared one gives — the pair the chaos matrix then holds to
// each other under faults.
func TestChaosWorkersServeDeclaredSum(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		c, err := newChaosCluster(1, seed)
		if err != nil {
			t.Fatal(err)
		}
		served, err := c.reg.Lookup("sim-wordcount")
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if served.SumInt64 != (seed%3 != 2) {
			t.Fatalf("seed %d: workers serve SumInt64 = %v", seed, served.SumInt64)
		}
		var splits []mapreduce.Split
		for id := uint64(0); id < 40; id++ {
			splits = append(splits, genSplit(seed, id))
		}
		if err := mapreduce.CheckJob(served, splits); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, split := range splits {
			got, err := mapreduce.RunMapTask(served, split)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mapreduce.RunMapTask(simJob(seed), split)
			if err != nil {
				t.Fatal(err)
			}
			got.Cost, want.Cost = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: the served job maps\n%+v\nthe replicas' maps\n%+v", seed, split.ID, got, want)
			}
		}
	}
}
