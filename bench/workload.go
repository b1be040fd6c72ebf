package main

import "fmt"

// family is a Table 1 benchmark at a geometry scale.
type family struct {
	name  string
	scale float64
}

// workload is one set of inputs. Every workload walks the paper's whole
// flow — a designer leg (DSL → RTL → simulate against the reference) and a
// trainer leg (four nodes over loopback TCP) — so that every end-to-end
// metric is defined on every workload; they differ in which leg and which
// layer does nearly all the work. README.md records why each was chosen.
type workload struct {
	name, why string

	// Trainer leg: the model the cluster trains and how.
	train      family
	wideM      int  // > 0: a linear regression this wide instead of train's own geometry
	accel      bool // nodes compute on AccelEngine (the compiled program) instead of RefEngine
	refThreads int
	// lrScale multiplies the family's default learning rate, which is
	// tuned for per-sample SGD and converges inside the warm-up otherwise.
	lrScale    float64
	miniBatch  int // system-wide samples per round
	samples    int // generated training vectors
	evalN      int // samples the loss is evaluated on
	warmRounds int
	segRounds  int
	// lossTarget is the mean loss that rounds_to_loss / time_to_loss_s wait
	// for; a run that ends above it fails.
	lossTarget float64
	// trainShare is the share of -seconds the trainer leg measures for; the
	// designer leg gets the rest.
	trainShare float64

	// Designer leg: the families compiled and simulated.
	families []family

	// quick is set by smoke(): stop after a few segments whatever the loss.
	quick bool
}

// Sizes that hold for every workload.
const (
	simVectors   = 256 // vectors per simulated batch
	minSegments  = 15
	minRounds    = 1000
	setupRepeats = 5
	// slices is how many turns the designer and trainer legs each take in a
	// timed run; it is also the least number of compiles per family.
	slices = 5
	// hashSegments is the number of timed segments after which the model
	// is hashed: the same K rounds on every run, whatever its length.
	hashSegments = 3
)

var workloads = []workload{
	{
		name:  "wide",
		why:   "512 KB linear model, 16 chunk frames per contribution, ~3 MB on the wire per round: the round is cosmicnet encode/decode, socket copies and the runtime's fold and broadcast",
		train: family{"stock", 1}, wideM: 65535, refThreads: 1, lrScale: 1,
		miniBatch: 4, samples: 64, evalN: 64,
		warmRounds: 100, segRounds: 50,
		lossTarget: 1e-8,
		trainShare: 0.7,
		families:   []family{{"stock", 0.1}},
	},
	{
		name:  "tiny",
		why:   "200-word logistic model, one frame per contribution, ~80 us rounds: the same path with almost no bytes, so per-frame and per-round fixed cost (syscalls, wake-ups, allocations) is the round",
		train: family{"tumor", 0.1}, refThreads: 2, lrScale: 0.001,
		miniBatch: 64, samples: 16384, evalN: 16384,
		warmRounds: 5000, segRounds: 2500,
		lossTarget: 0.335,
		trainShare: 0.7,
		families:   []family{{"tumor", 0.1}},
	},
	{
		name:  "deep",
		why:   "mnist MLP compiled for UltraScale+ and run on AccelEngine, mini-batch 256: the paper's actual node, compute-bound, so the round is accel.Sim.RunBatch; carries the convergence metrics",
		train: family{"mnist", 0.05}, accel: true, lrScale: 0.25,
		miniBatch: 256, samples: 16384, evalN: 4096,
		warmRounds: 100, segRounds: 50,
		lossTarget: 0.02,
		trainShare: 0.7,
		families:   []family{{"mnist", 0.05}},
	},
	{
		name:  "stack",
		why:   "the designer's path over five Table 1 families (600 to 93k ops): dsl, dfg, planner, compiler, verilog and the simulator do the work; the short cluster leg runs the compiled tumor accelerator",
		train: family{"tumor", 0.1}, accel: true, lrScale: 0.05,
		miniBatch: 64, samples: 16384, evalN: 16384,
		warmRounds: 200, segRounds: 100,
		lossTarget: 0.36,
		trainShare: 0.3,
		families: []family{
			{"tumor", 0.1}, {"stock", 0.1}, {"face", 0.1}, {"mnist", 0.1}, {"movielens", 0.1},
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have wide, tiny, deep, stack)", name)
}

// smoke shrinks a workload to tens of rounds and its first family, for the
// package's own test: every code path, no meaningful timing.
func (w workload) smoke() workload {
	w.warmRounds = 4
	w.segRounds = 4
	w.samples = min(w.samples, 256)
	w.evalN = min(w.evalN, 64)
	if w.wideM > 0 {
		w.wideM = 8191
	}
	w.families = []family{{w.families[0].name, min(w.families[0].scale, 0.02)}}
	w.train.scale = min(w.train.scale, 0.02)
	w.quick = true
	return w
}
