package deploy

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/runtime"
)

// TestMasterWorkersEndToEnd runs the full Director handshake and a training
// run with workers joining over TCP exactly as separate cosmic-node
// processes would (the worker code path is identical; only the process
// boundary differs).
func TestMasterWorkersEndToEnd(t *testing.T) {
	spec := Spec{
		Nodes: 5, Groups: 2,
		Benchmark: "tumor", Scale: 0.02, Samples: 200, Seed: 3,
		MiniBatch: 100, Rounds: 12, Threads: 2, Average: true,
	}
	addr := freeAddr(t)

	var wg sync.WaitGroup
	workerErrs := make([]error, spec.Nodes-1)
	for i := 0; i < spec.Nodes-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = RunWorker(addr, WorkerOptions{})
		}(i)
	}

	res, err := RunMaster(addr, spec, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if res.Stats.Rounds != spec.Rounds {
		t.Errorf("rounds = %d", res.Stats.Rounds)
	}
	if res.FinalLoss >= res.InitialLoss {
		t.Errorf("distributed training did not learn: %g -> %g", res.InitialLoss, res.FinalLoss)
	}
}

func TestMasterFlatTopology(t *testing.T) {
	spec := Spec{
		Nodes: 3, Groups: 1,
		Benchmark: "face", Scale: 0.02, Samples: 120, Seed: 5,
		MiniBatch: 60, Rounds: 8, Average: true,
	}
	addr := freeAddr(t)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(addr, WorkerOptions{}); err != nil {
				t.Error(err)
			}
		}()
	}
	res, err := RunMaster(addr, spec, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res.FinalLoss >= res.InitialLoss {
		t.Errorf("loss %g -> %g", res.InitialLoss, res.FinalLoss)
	}
}

func TestSingleNodeMaster(t *testing.T) {
	spec := Spec{
		Nodes: 1, Groups: 1,
		Benchmark: "stock", Scale: 0.01, Samples: 100, Seed: 2,
		MiniBatch: 50, Rounds: 5, Average: true,
	}
	res, err := RunMaster(freeAddr(t), spec, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.InitialLoss {
		t.Errorf("loss %g -> %g", res.InitialLoss, res.FinalLoss)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Nodes: 0, Benchmark: "face"},
		{Nodes: 2, Groups: 5, Benchmark: "face"},
		{Nodes: 2, Benchmark: "no-such-benchmark"},
		// Scale 0 means unset; anything else outside (0, 1] is an error,
		// not a silent 0.02.
		{Nodes: 2, Benchmark: "face", Scale: -0.5},
		{Nodes: 2, Benchmark: "face", Scale: 1.5},
		{Nodes: 2, Benchmark: "face", Scale: math.NaN()},
		{Nodes: 2, Benchmark: "face", Scale: math.Inf(1)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should fail validation", i)
		}
	}
	good := Spec{Nodes: 4, Benchmark: "face"}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Groups != 1 || good.Samples == 0 || good.Rounds == 0 || good.MiniBatch == 0 || good.LearningRate == 0 {
		t.Errorf("defaults not filled: %+v", good)
	}
	if good.Scale != 0.02 {
		t.Errorf("unset scale resolved to %g, want 0.02", good.Scale)
	}
	full := Spec{Nodes: 2, Benchmark: "face", Scale: 1}
	if err := full.Validate(); err != nil || full.Scale != 1 {
		t.Errorf("scale 1 resolved to %g (%v), want 1", full.Scale, err)
	}
	if good.ChunkWords != runtime.ChunkSize {
		t.Errorf("chunk_words resolved to %d, want %d", good.ChunkWords, runtime.ChunkSize)
	}
	// runtime.Launch's per-node batch rule: every node trains at least one
	// sample a round, so the system-wide batch rises to the node count.
	small := Spec{Nodes: 4, MiniBatch: 2, Benchmark: "face"}
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if small.MiniBatch != 4 {
		t.Errorf("mini_batch 2 on 4 nodes resolved to %d, want 4", small.MiniBatch)
	}
	quorum := Spec{Nodes: 4, Benchmark: "face"}
	quorum.MinQuorum = 2
	if err := quorum.Validate(); err != nil {
		t.Fatal(err)
	}
	if quorum.RoundTimeout != 2*time.Second {
		t.Errorf("min_quorum 2 with no timeout resolved to %v, want 2s", quorum.RoundTimeout)
	}
}

// TestSpecWireShape pins the Spec's JSON, the payload of the Director's
// MsgConfig: a fully set spec marshals to exactly these bytes and decodes
// back to itself. The round policy is an embedded runtime struct, so this
// guards its field names, order and tags.
func TestSpecWireShape(t *testing.T) {
	spec := Spec{
		Nodes: 6, Groups: 2,
		Benchmark: "tumor", Scale: 0.02, Samples: 100, Seed: 3,
		MiniBatch: 64, Rounds: 5, Threads: 2, LearningRate: 0.1, Average: true,
		RoundPolicy: runtime.RoundPolicy{RoundTimeout: 250 * time.Millisecond, MinQuorum: 2, ChunkWords: 64},
		Simulate:    true,
	}
	const want = `{"nodes":6,"groups":2,"benchmark":"tumor","scale":0.02,"samples":100,"seed":3,"mini_batch":64,"rounds":5,"threads":2,"learning_rate":0.1,"average":true,"round_timeout":250000000,"min_quorum":2,"chunk_words":64,"simulate":true}`
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != want {
		t.Fatalf("spec marshals to\n%s\nwant\n%s", blob, want)
	}
	var back Spec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Fatalf("round trip gave %+v, want %+v", back, spec)
	}
}

// TestMasterIgnoresGarbageJoin: a connection that speaks nonsense is
// dropped without wedging the handshake.
func TestMasterIgnoresGarbageJoin(t *testing.T) {
	spec := Spec{
		Nodes: 2, Groups: 1,
		Benchmark: "face", Scale: 0.02, Samples: 80, Seed: 9,
		MiniBatch: 40, Rounds: 3, Average: true,
	}
	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() {
		_, err := RunMaster(addr, spec, MasterOptions{})
		done <- err
	}()

	// A garbage client connects first and sends a non-hello frame.
	garbage, err := cosmicnet.Dial(addr)
	if err != nil {
		// The master may not be listening yet; retry once it is.
		for err != nil {
			garbage, err = cosmicnet.Dial(addr)
		}
	}
	_ = garbage.Send(&cosmicnet.Frame{Type: cosmicnet.MsgDone})

	// A real worker follows.
	go func() {
		if err := RunWorker(addr, WorkerOptions{}); err != nil {
			t.Error(err)
		}
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	garbage.Close()
}

// TestMasterFederatesWorkerMetrics: the Director scrapes workers over the
// control plane during training and serves their metrics, its own, and the
// cluster roster over HTTP. Every node, the Director included, serves the
// same telemetry plane, and the roster advertises the addresses they bound.
func TestMasterFederatesWorkerMetrics(t *testing.T) {
	spec := Spec{
		Nodes: 3, Groups: 1,
		Benchmark: "face", Scale: 0.02, Samples: 120, Seed: 7,
		MiniBatch: 60, Rounds: 4000, Average: true,
	}
	addr := freeAddr(t)

	var wg sync.WaitGroup
	for i := 0; i < spec.Nodes-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunWorker(addr, WorkerOptions{Obs: obs.New(), Telemetry: Telemetry{HTTPAddr: "127.0.0.1:0"}})
			if err != nil {
				t.Error(err)
			}
		}()
	}

	httpAddr := make(chan string, 1)
	masterDone := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = RunMaster(addr, spec, MasterOptions{
			Obs:         obs.New(),
			Telemetry:   Telemetry{HTTPAddr: "127.0.0.1:0", ScrapeInterval: 2 * time.Millisecond},
			OnHTTP:      func(a string) { httpAddr <- a },
			TraceIDBase: 1 << 32,
		})
		masterDone <- err
	}()

	base := "http://" + <-httpAddr
	fetch := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			return ""
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	// Poll /metrics until a worker's federated series and the Director's
	// derived round-latency gauge appear. Bounded: training runs 4000 rounds
	// (a few hundred ms), far longer than a few scrape ticks and polls — at
	// 200 rounds it finished, and closed the HTTP surface, inside the first
	// polls more often than not.
	deadline := time.Now().Add(10 * time.Second)
	for {
		body := fetch("/metrics")
		if strings.Contains(body, `cosmic_node_rounds_total{node="1"}`) &&
			strings.Contains(body, `cosmic_cluster_node_round_seconds{node="1"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("federated series never appeared:\n%s", body)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	roster := fetch("/cluster")
	for _, want := range []string{`"id":0`, `"id":1`, `"id":2`, `"stragglers"`} {
		if !strings.Contains(roster, want) {
			t.Errorf("/cluster missing %s:\n%s", want, roster)
		}
	}
	checkPlanes(t, base, roster)

	if err := <-masterDone; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res.FinalLoss >= res.InitialLoss {
		t.Errorf("loss %g -> %g", res.InitialLoss, res.FinalLoss)
	}
}

// checkPlanes asserts that the Director at base serves the node endpoints
// cosmic-prof and probes use, and that every http_addr in its roster is a
// bound address whose /healthz answers.
func checkPlanes(t *testing.T, base, roster string) {
	t.Helper()
	status := func(url string) int {
		resp, err := http.Get(url)
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"/healthz", "/debug/pprof/"} {
		if code := status(base + path); code != http.StatusOK {
			t.Errorf("Director GET %s = %d, want 200", path, code)
		}
	}
	var doc struct {
		Nodes []NodeStats `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(roster), &doc); err != nil {
		t.Fatalf("/cluster: %v", err)
	}
	for _, n := range doc.Nodes {
		_, port, err := net.SplitHostPort(n.HTTPAddr)
		if err != nil || port == "0" {
			t.Errorf("node %d advertises http_addr %q, want a bound address", n.ID, n.HTTPAddr)
			continue
		}
		if code := status("http://" + n.HTTPAddr + "/healthz"); code != http.StatusOK {
			t.Errorf("node %d: GET %s/healthz = %d, want 200", n.ID, n.HTTPAddr, code)
		}
	}
}

// TestRejoinWithoutTelemetry: with no HTTP address and no scrape interval
// set, the Director still notices a Delta whose control connection died and
// hands its slot to a fresh worker; the rounds it missed fold on quorum.
func TestRejoinWithoutTelemetry(t *testing.T) {
	spec := Spec{
		Nodes: 3, Groups: 1,
		Benchmark: "face", Scale: 0.02, Samples: 120, Seed: 11,
		MiniBatch: 60, Rounds: 20000, Average: true,
		RoundPolicy: runtime.RoundPolicy{RoundTimeout: 100 * time.Millisecond, MinQuorum: 2},
	}
	addr := freeAddr(t)
	var res *Result
	masterDone := make(chan error, 1)
	go func() {
		var err error
		res, err = RunMaster(addr, spec, MasterOptions{})
		masterDone <- err
	}()
	workerDone := make(chan error, 1)
	go func() { workerDone <- RunWorker(addr, WorkerOptions{}) }()

	// A Delta that joins like any worker, then loses its control connection
	// and its node a few rounds in.
	conn, err := dialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgHello}); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var cfg workerConfig
	if err := json.Unmarshal([]byte(f.Text), &cfg); err != nil {
		t.Fatal(err)
	}
	node, err := buildNode(cfg, nil, nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	go serveStats(conn, node, nil, "")
	go node.Run() //nolint:errcheck // the node is closed mid-run on purpose
	for deadline := time.Now().Add(10 * time.Second); node.Health().LastSeq < 20; {
		if time.Now().After(deadline) {
			t.Fatal("the Delta never reached round 20")
		}
		time.Sleep(time.Millisecond)
	}
	conn.Close()
	node.Close()

	// A fresh worker takes the slot. The Director refuses it until its tick
	// has seen the dead connection, so retry.
	for deadline := time.Now().Add(10 * time.Second); ; {
		err := RunWorker(addr, WorkerOptions{})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no replacement worker rejoined: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := <-masterDone; err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil {
		t.Error(err)
	}
	if res.Stats.Rounds != spec.Rounds || res.Stats.ExcludedRounds == 0 {
		t.Errorf("rounds = %d, excluded = %d; want %d rounds, some excluded",
			res.Stats.Rounds, res.Stats.ExcludedRounds, spec.Rounds)
	}
}

// TestWorkerTelemetry: a worker's plane honours its telemetry settings on
// their own. Alert rules run and log without an HTTP address, and an HTTP
// address that cannot be bound fails RunWorker before it says hello.
func TestWorkerTelemetry(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	alive := []tsdb.Rule{{Name: "worker-alive", Expr: "cosmic_go_goroutines", Op: ">", Value: 0}}
	for _, tc := range []struct {
		name      string
		telemetry Telemetry
		wantHello bool   // whether the worker must reach the Director
		wantLog   string // a line the worker must log while it waits for its config
	}{
		{"alerts without http", Telemetry{ScrapeInterval: 2 * time.Millisecond, AlertRules: alive}, true, `msg="alert firing" alert=worker-alive`},
		{"unbindable http", Telemetry{HTTPAddr: busy.Addr().String()}, false, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A Director that admits the worker and never configures it.
			director, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer director.Close()
			hello := make(chan *cosmicnet.Conn, 1)
			go func() {
				defer close(hello)
				raw, err := director.Accept()
				if err != nil {
					return
				}
				conn := &cosmicnet.Conn{Conn: raw}
				if f, err := conn.Recv(); err == nil && f.Type == cosmicnet.MsgHello {
					hello <- conn
				}
			}()
			var logs syncBuffer
			errc := make(chan error, 1)
			go func() {
				errc <- RunWorker(director.Addr().String(), WorkerOptions{
					Obs: obs.New(), Logger: slog.New(slog.NewTextHandler(&logs, nil)), Telemetry: tc.telemetry,
				})
			}()
			if !tc.wantHello {
				select {
				case err := <-errc:
					if err == nil {
						t.Fatal("RunWorker succeeded")
					}
				case <-time.After(5 * time.Second):
					t.Fatal("RunWorker neither failed nor returned")
				}
				director.Close()
				if conn := <-hello; conn != nil {
					conn.Close()
					t.Error("worker said hello")
				}
				return
			}
			var conn *cosmicnet.Conn
			select {
			case conn = <-hello:
			case err := <-errc:
				t.Fatalf("RunWorker returned before joining: %v", err)
			}
			if conn == nil {
				t.Fatal("worker never said hello")
			}
			for deadline := time.Now().Add(5 * time.Second); !strings.Contains(logs.String(), tc.wantLog); {
				if time.Now().After(deadline) {
					t.Errorf("worker never logged %s:\n%s", tc.wantLog, logs.String())
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			conn.Close()
			<-errc
		})
	}
}

// syncBuffer is a bytes.Buffer safe for a logger and a reader at once.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}
