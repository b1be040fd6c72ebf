package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/dsl"
	"repro/internal/ml"
)

func TestSuiteMatchesTable1(t *testing.T) {
	if len(Benchmarks) != 10 {
		t.Fatalf("suite has %d benchmarks, want 10", len(Benchmarks))
	}
	// Model sizes in KB from Table 1 (±2% for rounding conventions).
	wantKB := map[string]float64{
		"mnist": 2432, "acoustic": 1527, "stock": 31, "texture": 64,
		"tumor": 8, "cancer1": 24, "movielens": 1176, "netflix": 2854,
		"face": 7, "cancer2": 28,
	}
	for _, b := range Benchmarks {
		got := b.ModelKB()
		want := wantKB[b.Name]
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("%s: model size %.1f KB, Table 1 says %.0f KB", b.Name, got, want)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("netflix")
	if err != nil || b.Family != FamilyCF {
		t.Fatalf("ByName(netflix) = %+v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
	if len(Names()) != 10 || Names()[0] != "mnist" {
		t.Errorf("Names() = %v", Names())
	}
	// Algorithm-family aliases resolve to a representative benchmark.
	for alias, want := range map[string]string{
		"logistic": "tumor", "linear": "stock", "svm": "face",
		"backprop": "mnist", "cf": "movielens",
	} {
		b, err := ByName(alias)
		if err != nil || b.Name != want {
			t.Errorf("ByName(%s) = %v, %v; want %s", alias, b.Name, err, want)
		}
	}
}

func TestAlgorithmGeometry(t *testing.T) {
	for _, b := range Benchmarks {
		alg := b.Algorithm(1)
		if alg.ModelSize() != b.ModelParams() {
			t.Errorf("%s: algorithm model size %d != registry %d", b.Name, alg.ModelSize(), b.ModelParams())
		}
		if alg.FeatureSize() != b.Features {
			t.Errorf("%s: feature size %d != registry %d", b.Name, alg.FeatureSize(), b.Features)
		}
	}
}

func TestScaledGeometryShrinks(t *testing.T) {
	for _, b := range Benchmarks {
		full := b.Algorithm(1)
		small := b.Algorithm(0.01)
		if small.ModelSize() >= full.ModelSize() {
			t.Errorf("%s: scale 0.01 did not shrink model (%d vs %d)",
				b.Name, small.ModelSize(), full.ModelSize())
		}
		if small.ModelSize() == 0 {
			t.Errorf("%s: degenerate scaled model", b.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	b, _ := ByName("face")
	alg := b.Algorithm(0.02)
	d1 := b.Generate(alg, 16, 7)
	d2 := b.Generate(alg, 16, 7)
	for i := range d1 {
		for j := range d1[i].X {
			if d1[i].X[j] != d2[i].X[j] {
				t.Fatalf("sample %d differs across identical generations", i)
			}
		}
		if d1[i].Y[0] != d2[i].Y[0] {
			t.Fatalf("label %d differs across identical generations", i)
		}
	}
	d3 := b.Generate(alg, 16, 8)
	same := true
	for i := range d1 {
		if d1[i].Y[0] != d3[i].Y[0] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical labels")
	}
}

func TestGeneratedDataIsLearnable(t *testing.T) {
	for _, b := range Benchmarks {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			alg := b.Algorithm(0.01)
			data := b.Generate(alg, 200, 1)
			model := alg.InitModel(newRNG(b.Name))
			cfg := ml.SGDConfig{LearningRate: b.DefaultLR(alg), MiniBatch: 50, Aggregator: dsl.AggAverage}
			initial := ml.MeanLoss(alg, model, data)
			res := ml.Train(alg, cfg, model, data, 2, 6)
			final := res.LossPerEpoch[len(res.LossPerEpoch)-1]
			if final >= initial {
				t.Errorf("loss did not improve: %g -> %g", initial, final)
			}
		})
	}
}

func TestCFSamplesAreOneHot(t *testing.T) {
	b, _ := ByName("movielens")
	alg := b.Algorithm(0.001).(*ml.CF)
	data := b.Generate(alg, 50, 3)
	for i, s := range data {
		uOnes, vOnes := 0, 0
		for j := 0; j < alg.NU; j++ {
			if s.X[j] != 0 {
				uOnes++
			}
		}
		for j := 0; j < alg.NV; j++ {
			if s.X[alg.NU+j] != 0 {
				vOnes++
			}
		}
		if uOnes != 1 || vOnes != 1 {
			t.Fatalf("sample %d: user ones %d, item ones %d", i, uOnes, vOnes)
		}
		if s.Y[0] < 0 {
			t.Fatalf("sample %d: negative rating %g", i, s.Y[0])
		}
	}
}

func TestSVMLabelsAreSigns(t *testing.T) {
	b, _ := ByName("cancer2")
	alg := b.Algorithm(0.01)
	for i, s := range b.Generate(alg, 64, 5) {
		if s.Y[0] != 1 && s.Y[0] != -1 {
			t.Fatalf("sample %d: label %g not in {-1, +1}", i, s.Y[0])
		}
	}
}

func TestLogRegLabelsAreBinary(t *testing.T) {
	b, _ := ByName("tumor")
	alg := b.Algorithm(0.01)
	ones := 0
	data := b.Generate(alg, 128, 5)
	for i, s := range data {
		if s.Y[0] != 0 && s.Y[0] != 1 {
			t.Fatalf("sample %d: label %g not in {0, 1}", i, s.Y[0])
		}
		if s.Y[0] == 1 {
			ones++
		}
	}
	if ones == 0 || ones == len(data) {
		t.Errorf("degenerate label distribution: %d/%d positive", ones, len(data))
	}
}

func newRNG(name string) *rand.Rand { return rand.New(rand.NewSource(seedFor(name, 42))) }

// TestGenerateBitsPinned pins every benchmark's generated data bit for bit
// (24 samples at scale 0.01, seed 7, FNV-1a over each sample's X then Y
// words): the generator's layout may change, the values it draws may not.
func TestGenerateBitsPinned(t *testing.T) {
	want := map[string]uint64{
		"mnist": 0xb163e5e0580e5b3c, "acoustic": 0x3026a9d5889f61b3,
		"stock": 0x563ce5cf5fa5d7db, "texture": 0x84c63c8f92db3c7e,
		"tumor": 0xe95881109be875f1, "cancer1": 0x5cdc4c1029d984c9,
		"movielens": 0x75016c4cf92ae8c7, "netflix": 0x98ada64f4161713a,
		"face": 0xe659161564089a11, "cancer2": 0x1d48146c630f2f1e,
	}
	for _, b := range Benchmarks {
		h := fnv.New64a()
		for _, s := range b.Generate(b.Algorithm(0.01), 24, 7) {
			for _, v := range slices.Concat(s.X, s.Y) {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		if got := h.Sum64(); got != want[b.Name] {
			t.Errorf("%s: data digest %#016x, want %#016x", b.Name, got, want[b.Name])
		}
	}
}

// TestGenerateLayout: the samples are consecutive rows of one backing
// array, X then Y, each view capped at its own row.
func TestGenerateLayout(t *testing.T) {
	b, _ := ByName("mnist")
	alg := b.Algorithm(0.01)
	data := b.Generate(alg, 3, 7)
	nx, ny := alg.FeatureSize(), alg.OutputSize()
	next := unsafe.Pointer(&data[0].X[0])
	for i, s := range data {
		if len(s.X) != nx || cap(s.X) != nx || len(s.Y) != ny || cap(s.Y) != ny {
			t.Fatalf("sample %d: len/cap X %d/%d Y %d/%d, want X %d Y %d",
				i, len(s.X), cap(s.X), len(s.Y), cap(s.Y), nx, ny)
		}
		if unsafe.Pointer(&s.X[0]) != next || unsafe.Pointer(&s.Y[0]) != unsafe.Add(next, 8*nx) {
			t.Fatalf("sample %d is not the row after sample %d", i, i-1)
		}
		next = unsafe.Add(next, 8*(nx+ny))
	}
}
