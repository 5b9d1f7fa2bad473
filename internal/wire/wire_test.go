package wire

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"bcc/internal/rngutil"
)

func roundTrip(t *testing.T, write func(*Writer) error, read func(*Reader) error) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := write(w); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if err := read(r); err != nil {
		t.Fatal(err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	roundTrip(t,
		func(w *Writer) error { return w.WriteHello(Hello{Worker: 42}) },
		func(r *Reader) error {
			k, err := r.NextKind()
			if err != nil {
				return err
			}
			if k != KindHello {
				t.Fatalf("kind %d", k)
			}
			h, err := r.ReadHello()
			if err != nil {
				return err
			}
			if h.Worker != 42 {
				t.Fatalf("worker %d", h.Worker)
			}
			return nil
		})
}

func TestModelRoundTrip(t *testing.T) {
	in := Model{Iter: 7, Query: []float64{1.5, -2.25, math.Pi, 0}}
	roundTrip(t,
		func(w *Writer) error { return w.WriteModel(in) },
		func(r *Reader) error {
			if _, err := r.NextKind(); err != nil {
				return err
			}
			out, err := r.ReadModel()
			if err != nil {
				return err
			}
			if out.Iter != in.Iter || len(out.Query) != len(in.Query) {
				t.Fatalf("model %+v", out)
			}
			for i := range in.Query {
				if out.Query[i] != in.Query[i] {
					t.Fatalf("query[%d] %v != %v", i, out.Query[i], in.Query[i])
				}
			}
			return nil
		})
}

func TestShutdownModel(t *testing.T) {
	in := Model{Iter: -1}
	roundTrip(t,
		func(w *Writer) error { return w.WriteModel(in) },
		func(r *Reader) error {
			if _, err := r.NextKind(); err != nil {
				return err
			}
			out, err := r.ReadModel()
			if err != nil {
				return err
			}
			if out.Iter != -1 {
				t.Fatalf("iter %d", out.Iter)
			}
			if out.Query != nil {
				t.Fatalf("query should stay nil, got %v", out.Query)
			}
			return nil
		})
}

func TestNilVsEmptyVec(t *testing.T) {
	in := Reply{Iter: 1, Worker: 2, Msgs: []Msg{
		{From: 2, Tag: -1, Units: 1, Vec: []float64{}},
	}}
	roundTrip(t,
		func(w *Writer) error { return w.WriteReply(in) },
		func(r *Reader) error {
			if _, err := r.NextKind(); err != nil {
				return err
			}
			out, err := r.ReadReply()
			if err != nil {
				return err
			}
			m := out.Msgs[0]
			if m.Vec == nil {
				t.Fatal("empty vec decoded as nil")
			}
			if len(m.Vec) != 0 {
				t.Fatalf("vec %v", m.Vec)
			}
			return nil
		})
}

// TestWriteReplyRefusesImag pins that the reply frame carries real payloads
// only: a message with a non-nil Imag is an error, not silently dropped,
// and no byte of the refused frame reaches the stream — the next frame
// written is the first one read.
func TestWriteReplyRefusesImag(t *testing.T) {
	for _, imag := range [][]float64{{1, 2}, {}} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		err := w.WriteReply(Reply{Iter: 1, Worker: 3, Msgs: []Msg{
			{From: 3, Tag: -1, Units: 1, Vec: []float64{1, 2}},
			{From: 3, Tag: 0, Units: 1, Vec: []float64{3, 4}, Imag: imag},
		}})
		if err == nil {
			t.Fatalf("Imag %v: WriteReply accepted it", imag)
		}
		next := Reply{Iter: 2, Worker: 3, Msgs: []Msg{{From: 3, Tag: -1, Units: 1, Vec: []float64{5, 6}}}}
		if err := w.WriteReply(next); err != nil {
			t.Fatal(err)
		}
		r := NewReader(&buf)
		if k, err := r.NextKind(); err != nil || k != KindReply {
			t.Fatalf("Imag %v: NextKind = %v, %v", imag, k, err)
		}
		got, err := r.ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		checkReplyEqual(t, &got, &next)
		if _, err := r.NextKind(); err != io.EOF {
			t.Fatalf("Imag %v: bytes after the one accepted frame (err %v)", imag, err)
		}
	}
}

func TestReplyRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rngutil.New(seed)
		nm := rng.Intn(4)
		in := Reply{
			Iter:    rng.Intn(1000),
			Worker:  rng.Intn(256),
			Compute: rng.Normal(),
		}
		for i := 0; i < nm; i++ {
			msg := Msg{
				From:  rng.Intn(256),
				Tag:   rng.Intn(100) - 1,
				Units: rng.Float64() * 10,
			}
			vl := rng.Intn(32)
			msg.Vec = make([]float64, vl)
			for j := range msg.Vec {
				msg.Vec[j] = rng.Normal()
			}
			in.Msgs = append(in.Msgs, msg)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteReply(in); err != nil {
			return false
		}
		r := NewReader(&buf)
		if k, err := r.NextKind(); err != nil || k != KindReply {
			return false
		}
		out, err := r.ReadReply()
		if err != nil {
			return false
		}
		if out.Iter != in.Iter || out.Worker != in.Worker || out.Compute != in.Compute {
			return false
		}
		if len(out.Msgs) != len(in.Msgs) {
			return false
		}
		for i := range in.Msgs {
			a, b := in.Msgs[i], out.Msgs[i]
			if a.From != b.From || a.Tag != b.Tag || a.Units != b.Units {
				return false
			}
			if len(a.Vec) != len(b.Vec) || b.Imag != nil {
				return false
			}
			for j := range a.Vec {
				if a.Vec[j] != b.Vec[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHello(Hello{Worker: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.WriteModel(Model{Iter: i, Query: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	if k, _ := r.NextKind(); k != KindHello {
		t.Fatal("expected hello first")
	}
	if _, err := r.ReadHello(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if k, _ := r.NextKind(); k != KindModel {
			t.Fatalf("frame %d: not a model", i)
		}
		m, err := r.ReadModel()
		if err != nil {
			t.Fatal(err)
		}
		if m.Iter != i || m.Query[0] != float64(i) {
			t.Fatalf("frame %d decoded as %+v", i, m)
		}
	}
	if _, err := r.NextKind(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestUnknownKindRejected(t *testing.T) {
	r := NewReader(strings.NewReader("\x99"))
	if _, err := r.NextKind(); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestOversizeVectorRejected(t *testing.T) {
	// Hand-craft a model frame with an absurd length prefix.
	var buf bytes.Buffer
	buf.WriteByte(KindModel)
	buf.Write(make([]byte, 8))                // iter = 0
	buf.Write([]byte{0xFE, 0xFF, 0xFF, 0xFE}) // huge length
	r := NewReader(&buf)
	if _, err := r.NextKind(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadModel(); err == nil {
		t.Fatal("oversize vector accepted")
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteModel(Model{Iter: 1, Query: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full)-1; cut += 5 {
		r := NewReader(bytes.NewReader(full[:cut]))
		k, err := r.NextKind()
		if err != nil {
			continue // truncated before the kind byte: fine
		}
		if k != KindModel {
			t.Fatalf("cut %d: kind %d", cut, k)
		}
		if _, err := r.ReadModel(); err == nil {
			t.Fatalf("cut %d: truncated frame decoded", cut)
		}
	}
}

func TestSpecialFloats(t *testing.T) {
	in := Model{Iter: 0, Query: []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, -0.0}}
	roundTrip(t,
		func(w *Writer) error { return w.WriteModel(in) },
		func(r *Reader) error {
			if _, err := r.NextKind(); err != nil {
				return err
			}
			out, err := r.ReadModel()
			if err != nil {
				return err
			}
			for i := range in.Query {
				if math.Float64bits(out.Query[i]) != math.Float64bits(in.Query[i]) {
					t.Fatalf("bit pattern changed at %d", i)
				}
			}
			return nil
		})
	// NaN must round-trip bit-exactly too.
	nan := Model{Iter: 0, Query: []float64{math.NaN()}}
	roundTrip(t,
		func(w *Writer) error { return w.WriteModel(nan) },
		func(r *Reader) error {
			if _, err := r.NextKind(); err != nil {
				return err
			}
			out, err := r.ReadModel()
			if err != nil {
				return err
			}
			if !math.IsNaN(out.Query[0]) {
				t.Fatal("NaN lost")
			}
			return nil
		})
}
