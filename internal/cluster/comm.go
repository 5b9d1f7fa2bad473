package cluster

import (
	"fmt"

	"bcc/internal/coding"
	"bcc/internal/wire"
)

// CommOptions configures the comm plane's payload codec — how gradient
// payloads are represented between workers and the master. The zero value is
// raw64 (dense float64, bit-exact, today's format). The same options must be
// given to the master's Config and to every out-of-process worker's
// WorkerEnv; the handshake verifies they agree.
//
// Lossy codecs ("f32", "topk") are deterministic across runtimes: the
// transform is a pure function of the payload values, applied exactly once
// per payload at each runtime's wire boundary (during serialization on live
// and tcp, in process on sim), so the same spec + seed + codec produces
// bit-identical results on sim, live and tcp.
type CommOptions struct {
	// Payload names the codec: "" or "raw64" (default, lossless), "f32"
	// (float32 quantization of query and reply vectors), or "topk" (keep the
	// TopK largest-magnitude reply coordinates, shipped index+value style;
	// queries stay dense).
	Payload string
	// TopK is the number of coordinates kept per reply vector under the
	// "topk" codec; 0 means dim/16 rounded up (the K = p/16 operating point).
	// Setting it with any other codec is an error.
	TopK int
	// Chunk is the wire framing chunk size in float64 elements (0 = the wire
	// default, 512). It has no effect: the byte stream and the results are
	// identical for every chunk size. The TCP handshake still requires master
	// and workers to agree.
	//
	// Deprecated: leave Chunk zero; it remains only until the bench
	// workloads stop setting it.
	Chunk int
}

// Validate checks the options against a model dimension without building a
// run; Config.validate and core's Spec validation both funnel through it.
func (o CommOptions) Validate(dim int) error {
	_, err := o.resolve(dim)
	return err
}

// commPlane is the resolved comm-plane configuration of one run: the wire
// payload config with a concrete K, plus the payload-byte fraction relative
// to raw64 that the sim and live runtimes fold into their upload and ingress
// latency draws.
type commPlane struct {
	pc wire.PayloadConfig
	// frac is reply payload bytes divided by raw64 payload bytes at the
	// model dimension: 1 for raw64, 0.5 for f32, K/dim for topk. Latency
	// models charge upload and ingress per unit; scaling the units argument
	// by frac makes compressed payloads move proportionally faster, so the
	// coded-redundancy vs compression tradeoff shows up in modelled
	// wall-clock identically on every runtime.
	frac float64
}

func (o CommOptions) resolve(dim int) (commPlane, error) {
	codec, err := wire.ParsePayloadCodec(o.Payload)
	if err != nil {
		return commPlane{}, fmt.Errorf("cluster: %w", err)
	}
	if o.Chunk < 0 {
		return commPlane{}, fmt.Errorf("cluster: Comm.Chunk %d must be non-negative", o.Chunk)
	}
	k := 0
	if codec == wire.PayloadTopK {
		k = o.TopK
		if k == 0 {
			k = (dim + 15) / 16
			if k < 1 {
				k = 1
			}
		}
		if k < 0 || k > dim {
			return commPlane{}, fmt.Errorf("cluster: Comm.TopK %d outside [1, %d]", o.TopK, dim)
		}
	} else if o.TopK != 0 {
		return commPlane{}, fmt.Errorf("cluster: Comm.TopK %d set but payload codec is %q (only topk keeps coordinates)", o.TopK, codec)
	}
	pc := wire.PayloadConfig{Codec: codec, TopK: k, Chunk: o.Chunk}
	frac := 1.0
	if dim > 0 {
		frac = float64(pc.VecBytes(dim)) / float64(8*dim)
	}
	return commPlane{pc: pc, frac: frac}, nil
}

// lossy reports whether reply payloads are transformed at all.
func (p commPlane) lossy() bool { return p.pc.Codec != wire.PayloadRaw64 }

// lossyQuery reports whether model queries are transformed (f32 only: topk
// ships queries dense).
func (p commPlane) lossyQuery() bool { return p.pc.Codec == wire.PayloadF32 }

// newCoder returns a fresh in-process transform coder, or nil for raw64.
// Coders hold selection scratch and are per-goroutine.
func (p commPlane) newCoder() *wire.VecCoder {
	if !p.lossy() {
		return nil
	}
	return wire.NewVecCoder(p.pc)
}

// msgBytes is the modelled payload size of a message in bytes under this
// plane's codec — element bytes only, excluding framing prefixes, exactly
// the accounting IterStats.Bytes has always used (raw64 reproduces the old
// 8 bytes/float64 count bit-for-bit).
func (p commPlane) msgBytes(msg coding.Message) int {
	return p.pc.VecBytes(len(msg.Vec))
}

// applyReplyCodec runs every payload of msgs through the canonical lossy
// transform in place. A nil coder (raw64) is a no-op. The sim transport,
// which never serializes, calls this right after encoding; the live and tcp
// runtimes transform as the wire serializes — each payload is transformed
// exactly once on every runtime.
func applyReplyCodec(coder *wire.VecCoder, msgs []coding.Message) {
	if coder == nil {
		return
	}
	for _, m := range msgs {
		coder.ApplyReply(m.Vec)
	}
}

// hello builds the handshake frame a TCP worker announces itself with: its
// index plus the resolved comm-plane parameters (effective chunk, so "0 =
// default" and an explicit 512 agree).
func (p commPlane) hello(worker int) wire.Hello {
	return wire.Hello{
		Worker: worker,
		Codec:  p.pc.Codec,
		TopK:   p.pc.TopK,
		Chunk:  p.pc.ChunkElems(),
	}
}

// checkHello verifies a worker's announced comm plane against the master's.
// A silent mismatch would corrupt every payload (the master would parse f32
// bytes as float64s, or scatter top-k pairs it never receives), so the
// handshake is the last safe moment to fail.
func (p commPlane) checkHello(h wire.Hello) error {
	if h.Codec != p.pc.Codec {
		return fmt.Errorf("payload codec mismatch: worker %q, master %q", h.Codec, p.pc.Codec)
	}
	if h.TopK != p.pc.TopK {
		return fmt.Errorf("top-k mismatch: worker %d, master %d", h.TopK, p.pc.TopK)
	}
	if h.Chunk != p.pc.ChunkElems() {
		return fmt.Errorf("chunk size mismatch: worker %d, master %d", h.Chunk, p.pc.ChunkElems())
	}
	return nil
}

// wireCounter is the optional transport capability behind measured comm
// accounting: transports whose bytes genuinely cross a wire report running
// totals counted at the connection layer. The engine snapshots the totals
// around each iteration and records the deltas in IterStats.WireBytesIn/Out;
// transports without the capability (sim) report zeros.
type wireCounter interface {
	// WireTotals returns cumulative bytes received by and sent from the
	// master's connections since the transport was built.
	WireTotals() (in, out int64)
}
