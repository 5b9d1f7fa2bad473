package cluster

import (
	"bytes"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"bcc/internal/vecmath"
	"bcc/internal/wire"
)

// The comm-plane tests pin the payload-codec subsystem: lossy codecs must be
// bit-for-bit deterministic across every runtime (the conformance axis),
// compressed runs must still train, the zero-alloc steady state must survive
// every codec, the TCP handshake must reject codec disagreement, and the
// measured wire accounting must match the frame grammar exactly.

// codecAxis is the lossy arm of the conformance matrix (raw64 is covered by
// TestScenarioConformance over the full scenario library).
func codecAxis() []CommOptions {
	return []CommOptions{
		{Payload: "f32"},
		{Payload: "topk"}, // default K = dim/16, floor 1
		{Payload: "topk", TopK: 3, Chunk: 5},
	}
}

// TestScenarioConformanceCodecs extends the conformance suite with the codec
// axis: under a lossy payload codec, the live and tcp runtimes must
// reproduce the sim reference bit for bit — the lossy transform is a pure
// function applied exactly once per payload, by the sim right after encoding
// and by the wire serializer on the other two.
func TestScenarioConformanceCodecs(t *testing.T) {
	if testing.Short() {
		t.Skip("staggered live runs sleep real time")
	}
	for _, scenario := range []string{"steady", "flaky-tail"} {
		for _, comm := range codecAxis() {
			scenario, comm := scenario, comm
			label := comm.Payload
			if comm.TopK != 0 || comm.Chunk != 0 {
				label = comm.Payload + "-tuned"
			}
			t.Run(scenario+"/barrier/"+label, func(t *testing.T) {
				t.Parallel()
				ref := runScenarioComm(t, scenario, comm, nil)
				if len(ref.res.Iters) != scenarioIters {
					t.Fatalf("sim completed %d iterations, want %d", len(ref.res.Iters), scenarioIters)
				}
				for _, rt := range scenarioRuntimes() {
					compareScenarioRuns(t, rt.name, runScenarioComm(t, scenario, comm, rt.run), ref, false)
				}
			})
		}
	}
}

// TestLossyCodecsConverge checks that compressed training still optimizes:
// f32 must track the raw64 trajectory almost exactly, and top-k (a much
// coarser code) must still drive the loss well below chance.
func TestLossyCodecsConverge(t *testing.T) {
	run := func(comm CommOptions) *Result {
		t.Helper()
		cfg, _ := buildRunDim(t, "bcc", 12, 12, 3, 40, 91, Zero{}, 128)
		cfg.Comm = comm
		cfg.LossEvery = 39
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	raw := run(CommOptions{})
	f32 := run(CommOptions{Payload: "f32"})
	topk := run(CommOptions{Payload: "topk"}) // K = 128/16 = 8 of 128 coords

	rawLoss := raw.Iters[39].Loss
	if math.IsNaN(rawLoss) || rawLoss >= math.Ln2 {
		t.Fatalf("raw64 baseline did not train: loss %v", rawLoss)
	}
	// f32 rounds each coordinate to 24-bit mantissas; after 40 iterations the
	// trajectory stays close to full precision.
	if d := vecmath.MaxAbsDiff(f32.FinalW, raw.FinalW); d > 1e-2 {
		t.Fatalf("f32 weights drifted %v from raw64", d)
	}
	if loss := f32.Iters[39].Loss; loss > rawLoss*1.05+1e-9 {
		t.Fatalf("f32 loss %v much worse than raw64 %v", loss, rawLoss)
	}
	// Top-k keeps 1/16 of the coordinates per reply; convergence is slower
	// but the loss must still drop decisively below chance (ln 2).
	if loss := topk.Iters[39].Loss; math.IsNaN(loss) || loss >= 0.9*math.Ln2 {
		t.Fatalf("topk did not make optimization progress: loss %v (chance %v)", loss, math.Ln2)
	}
}

// TestSimZeroAllocsWithCodecs extends the steady-state zero-allocation
// invariant to the lossy codecs: quantization and top-k selection run in
// per-transport scratch (the coder's index heap, the engine's query buffer),
// so a compressed iteration allocates exactly as much as a raw64 one — zero
// per worker message.
func TestSimZeroAllocsWithCodecs(t *testing.T) {
	for _, comm := range []CommOptions{{Payload: "f32"}, {Payload: "topk"}} {
		comm := comm
		t.Run(comm.Payload, func(t *testing.T) {
			const shortIters, longIters = 2, 10
			mk := func(iters int) (*Config, *simTransport) {
				cfg, _ := buildRun(t, "bcc", 8, 8, 2, iters, 77, Zero{})
				cfg.Comm = comm
				return cfg, newSimTransport(cfg)
			}
			cfgShort, trShort := mk(shortIters)
			cfgLong, trLong := mk(longIters)
			run := func(cfg *Config, tr *simTransport) {
				if _, err := RunTransport(cfg, tr); err != nil {
					t.Fatal(err)
				}
			}
			run(cfgShort, trShort)
			run(cfgLong, trLong)
			short := testing.AllocsPerRun(10, func() { run(cfgShort, trShort) })
			long := testing.AllocsPerRun(10, func() { run(cfgLong, trLong) })
			if long > short {
				_, n, _ := cfgLong.Plan.Params()
				extraMsgs := float64((longIters - shortIters) * n)
				t.Fatalf("codec %s allocates in steady state: %.1f allocs for %d iterations vs %.1f for %d (%.3f per worker message, want 0)",
					comm.Payload, long, longIters, short, shortIters, (long-short)/extraMsgs)
			}
		})
	}
}

// TestCommOptionsValidation pins the error contract of the comm-plane knobs.
func TestCommOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		comm CommOptions
		want string
	}{
		{"unknown codec", CommOptions{Payload: "zstd"}, "unknown payload codec"},
		{"negative chunk", CommOptions{Chunk: -1}, "must be non-negative"},
		{"topk with raw64", CommOptions{TopK: 4}, "only topk keeps coordinates"},
		{"topk too large", CommOptions{Payload: "topk", TopK: 13}, "outside [1, 12]"},
		{"topk negative", CommOptions{Payload: "topk", TopK: -2}, "outside [1, 12]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.comm.Validate(12)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate(12) = %v, want error containing %q", err, tc.want)
			}
		})
	}
	for _, ok := range []CommOptions{{}, {Payload: "raw64"}, {Payload: "f32", Chunk: 9},
		{Payload: "topk"}, {Payload: "topk", TopK: 12}} {
		if err := ok.Validate(12); err != nil {
			t.Fatalf("Validate(12) rejected valid options %+v: %v", ok, err)
		}
	}
	// A run with an invalid comm config must fail at validation, not mid-run.
	cfg, _ := buildRun(t, "bcc", 8, 8, 2, 2, 50, Zero{})
	cfg.Comm = CommOptions{Payload: "zstd"}
	if _, err := RunSim(cfg); err == nil || !strings.Contains(err.Error(), "unknown payload codec") {
		t.Fatalf("RunSim with bad codec: %v", err)
	}
}

// TestTCPHandshakeRejectsCodecMismatch pins the negotiation contract: a
// worker announcing a different payload codec than the master must be
// refused at accept time.
func TestTCPHandshakeRejectsCodecMismatch(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 4, 2, 2, 51, Zero{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	env := WorkerEnv{
		Index: 0, Plan: cfg.Plan, Model: cfg.Model, Units: cfg.Units,
		Latency: Zero{}, TimeScale: 1e-5,
		Comm: CommOptions{Payload: "f32"},
	}
	go func() { _ = DialAndServeWorker(ln.Addr().String(), env) }()
	_, err = ServeMasterPool(ln, 1, 5*time.Second, "", nil, CommOptions{Payload: "topk"}, cfg.Model.Dim())
	if err == nil || !strings.Contains(err.Error(), "payload codec mismatch") {
		t.Fatalf("mismatched handshake accepted: %v", err)
	}
}

// TestTCPChunkSizeInvariance pins the chunking contract end to end: the
// chunk size is staging granularity only, so tcp runs with wildly
// different chunk sizes produce bit-identical results and identical modelled
// byte counts.
func TestTCPChunkSizeInvariance(t *testing.T) {
	run := func(chunk int) *Result {
		t.Helper()
		cfg, _ := buildRunDim(t, "bcc", 8, 4, 2, 4, 52, Zero{}, 53)
		cfg.Comm = CommOptions{Payload: "f32", Chunk: chunk}
		res, err := RunLive(cfg, LiveOptions{TimeScale: 1e-5, Timeout: 30 * time.Second, TCP: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(0) // wire default
	for _, chunk := range []int{1, 7, 1 << 12} {
		got := run(chunk)
		if d := vecmath.MaxAbsDiff(got.FinalW, ref.FinalW); d != 0 {
			t.Fatalf("chunk %d: final weights differ by %v", chunk, d)
		}
		if got.TotalBytes != ref.TotalBytes {
			t.Fatalf("chunk %d: modelled bytes %d, want %d", chunk, got.TotalBytes, ref.TotalBytes)
		}
	}
}

// TestWireAccountingMatchesAnalytic derives the exact number of bytes the
// wire frame grammar puts on the sockets for a fixed uncoded run and checks
// the measured per-iteration WireBytesIn/Out against it, per codec. Uncoded
// with m = n sends exactly one dense-vector message per worker and decodes
// only after all n arrive, so every frame of an iteration is consumed inside
// that iteration's accounting window.
func TestWireAccountingMatchesAnalytic(t *testing.T) {
	const (
		m, n, r = 4, 4, 1
		dim     = 64
		iters   = 3
		topkK   = (dim + 15) / 16 // resolver default
	)
	vecBytes := func(codec string, n, k int) int {
		switch codec {
		case "f32":
			return 4 + 4*n
		case "topk":
			return 4 + 4 + 8*k
		}
		return 4 + 8*n
	}
	check := func(t *testing.T, codec string) {
		cfg, _ := buildRunDim(t, "uncoded", m, n, r, iters, 53, Zero{}, dim)
		cfg.Comm = CommOptions{Payload: codec}
		var stats []IterStats
		cfg.Observer = ObserverFuncs{Iteration: func(st IterStats) { stats = append(stats, st) }}
		if _, err := RunLive(cfg, LiveOptions{TimeScale: 1e-5, Timeout: 30 * time.Second, TCP: true}); err != nil {
			t.Fatal(err)
		}
		// Queries are quantized under f32 but ship dense under topk.
		qBytes := vecBytes("raw64", dim, 0)
		if codec == "f32" {
			qBytes = vecBytes("f32", dim, 0)
		}
		// One model frame per worker: type byte, iter, the active-level
		// stamp (uint32, 0 on non-retunable schemes), then the query.
		wantOut := n * (1 + 8 + 4 + qBytes)
		// One reply frame per worker: header + one message whose Vec is a
		// dim-length dense vector.
		msgBytes := 4 + 8 + 8 + vecBytes(codec, dim, topkK)
		wantIn := n * (1 + 8 + 4 + 8 + 4 + msgBytes)
		if len(stats) != iters {
			t.Fatalf("observed %d iterations, want %d", len(stats), iters)
		}
		for _, st := range stats {
			if st.WireBytesOut != wantOut {
				t.Errorf("iter %d: WireBytesOut %d, want %d", st.Iter, st.WireBytesOut, wantOut)
			}
			if st.WireBytesIn != wantIn {
				t.Errorf("iter %d: WireBytesIn %d, want %d", st.Iter, st.WireBytesIn, wantIn)
			}
		}
	}
	for _, codec := range []string{"raw64", "f32", "topk"} {
		t.Run(codec, func(t *testing.T) { check(t, codec) })
	}
}

// TestWireAccountingZeroOffWire pins the capability boundary: the sim has
// no wire and reports zero measured bytes (the modelled Bytes field still
// counts payloads), while live measures its pipes exactly as tcp measures
// its sockets — the broadcast frames are deterministic, so both egress
// counts agree on every iteration.
func TestWireAccountingZeroOffWire(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 8, 2, 3, 54, Zero{})
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWireIn != 0 || res.TotalWireOut != 0 {
		t.Fatalf("sim reported wire bytes %d/%d, want 0/0", res.TotalWireIn, res.TotalWireOut)
	}
	if res.TotalBytes == 0 {
		t.Fatal("modelled payload bytes missing")
	}
	run := func(tcp bool) *Result {
		cfg, _ := buildRun(t, "bcc", 8, 8, 2, 3, 54, Zero{})
		res, err := RunLive(cfg, LiveOptions{TimeScale: 1e-5, Timeout: 30 * time.Second, TCP: tcp})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	live, tcp := run(false), run(true)
	for i, it := range live.Iters {
		if want := tcp.Iters[i].WireBytesOut; it.WireBytesOut != want || want == 0 {
			t.Errorf("iter %d: live sent %d wire bytes, tcp %d; want equal and non-zero", i, it.WireBytesOut, want)
		}
	}
	if live.TotalWireIn <= 0 {
		t.Fatalf("live measured %d reply wire bytes, want > 0", live.TotalWireIn)
	}
}

// TestCodecCompressionOnWire measures the headline claim at the socket
// layer: relative to raw64, f32 must cut reply traffic by at least 40% and
// topk at K = dim/16 by at least 4x on the tcp runtime.
// Uncoded, so that every run sends exactly one reply per worker per iteration
// (a bcc worker may skip an iteration the master has already decoded).
func TestCodecCompressionOnWire(t *testing.T) {
	in := func(codec string) int {
		t.Helper()
		cfg, _ := buildRunDim(t, "uncoded", 4, 4, 1, 4, 56, Zero{}, 1024)
		cfg.Comm = CommOptions{Payload: codec}
		res, err := RunLive(cfg, LiveOptions{TimeScale: 1e-5, Timeout: 30 * time.Second, TCP: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalWireIn
	}
	raw, f32, topk := in("raw64"), in("f32"), in("topk")
	if float64(f32) > 0.6*float64(raw) {
		t.Fatalf("f32 reply traffic %d not ≤ 60%% of raw64 %d", f32, raw)
	}
	if float64(topk) > float64(raw)/4 {
		t.Fatalf("topk reply traffic %d not ≤ 1/4 of raw64 %d", topk, raw)
	}
}

// TestQueryQuantizationMatchesWire pins the f32 determinism mechanism: the
// engine pre-quantizes the broadcast query, so the values a worker computes
// on are exactly what an f32 wire round trip would deliver.
func TestQueryQuantizationMatchesWire(t *testing.T) {
	v := []float64{1.0 / 3, -2.718281828, 1e-40, 6.5e12, math.Pi}
	q := append([]float64(nil), v...)
	wire.QuantizeF32(q)
	for i := range v {
		if want := float64(float32(v[i])); q[i] != want {
			t.Fatalf("QuantizeF32[%d] = %v, want %v", i, q[i], want)
		}
	}
}

// TestBroadcastFrameMatchesWriter pins serialise-once: the one frame the tcp
// fabric encodes per broadcast and writes to every socket is byte for byte
// what a per-connection wire.Writer.WriteModel would have sent — f32 query
// quantisation, raw64 queries under topk, the Level stamp and the Iter < 0
// shutdown frame included — and nothing else reaches the workers.
func TestBroadcastFrameMatchesWriter(t *testing.T) {
	const dim, workers = 700, 3 // dim is no multiple of the staging chunk
	query := make([]float64, dim)
	for i := range query {
		query[i] = math.Sin(float64(i)) / 3 // not float32-representable
	}
	updates := []ModelUpdate{
		{Iter: 0, Query: query},
		{Iter: 7, Level: 2, Query: query[:dim/2]},
		{Iter: -1},
	}
	for _, comm := range []CommOptions{{}, {Payload: "f32"}, {Payload: "topk", TopK: 9}, {Payload: "f32", Chunk: 33}} {
		cp, err := comm.resolve(dim)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// Bare workers: dial and say hello (the listen backlog holds them
		// until the master accepts), then only read.
		conns := make([]net.Conn, workers)
		for w := range conns {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := newWireCodec(conn, nil, cp).WriteHello(cp.hello(w)); err != nil {
				t.Fatal(err)
			}
			conns[w] = conn
		}
		fab, err := ServeMasterPool(ln, workers, 5*time.Second, "", nil, comm, dim)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		ww := wire.NewWriter(&want)
		ww.SetPayload(cp.pc)
		for _, mu := range updates {
			if err := ww.WriteModel(mu); err != nil {
				t.Fatal(err)
			}
			if err := fab.Broadcast(mu); err != nil {
				t.Fatal(err)
			}
		}
		if _, out := fab.(*connFabric).WireTotals(); out != int64(workers*want.Len()) {
			t.Fatalf("%+v: fabric counted %d bytes out, want %d x %d", comm, out, workers, want.Len())
		}
		fab.Close()
		for w, conn := range conns {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := io.ReadAll(conn) // to the master's close
			if err != nil {
				t.Fatalf("%+v worker %d: %v", comm, w, err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%+v worker %d: received %d bytes that differ from the %d a per-connection Writer emits", comm, w, len(got), want.Len())
			}
		}
	}
}
