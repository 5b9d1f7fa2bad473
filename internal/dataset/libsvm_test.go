package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

const libsvmSample = `# tiny sample in libsvm format
+1 1:0.5 3:-2 7:1.25
-1 2:3 7:0.5
+1 4:1e-3
-1 1:-1 2:-1 3:-1   # inline comment

+1 6:42
`

func TestLoadLIBSVM(t *testing.T) {
	d, err := LoadLIBSVM(strings.NewReader(libsvmSample))
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 5 || d.Dim() != 7 {
		t.Fatalf("shapes N=%d Dim=%d, want 5x7", d.N(), d.Dim())
	}
	if d.NNZ() != 10 {
		t.Fatalf("NNZ = %d, want 10", d.NNZ())
	}
	wantY := []float64{1, -1, 1, -1, 1}
	for i, y := range wantY {
		if d.Y[i] != y {
			t.Fatalf("Y[%d] = %v, want %v", i, d.Y[i], y)
		}
	}
	if d.X.At(0, 2) != -2 || d.X.At(1, 6) != 0.5 || d.X.At(2, 3) != 1e-3 || d.X.At(4, 5) != 42 {
		t.Fatal("parsed values misplaced")
	}
	if _, ok := d.Sparse(); !ok {
		t.Fatal("LIBSVM load should produce CSR storage")
	}
}

func TestLoadLIBSVMZeroOneLabels(t *testing.T) {
	d, err := LoadLIBSVM(strings.NewReader("1 1:2\n0 2:3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Y[0] != 1 || d.Y[1] != -1 {
		t.Fatalf("0/1 labels mapped to %v", d.Y)
	}
}

func TestLoadLIBSVMErrors(t *testing.T) {
	bad := map[string]string{
		"empty":          "",
		"comments-only":  "# nothing\n\n",
		"bad-label":      "abc 1:2\n",
		"nan-label":      "NaN 1:2\n",
		"bad-token":      "+1 1\n",
		"bad-index":      "+1 0:2\n",
		"neg-index":      "+1 -3:2\n",
		"descending":     "+1 5:1 3:2\n",
		"duplicate":      "+1 2:1 2:2\n",
		"bad-value":      "+1 1:x\n",
		"inf-value":      "+1 1:Inf\n",
		"missing-colon:": "+1 12\n",
	}
	for name, in := range bad {
		if _, err := LoadLIBSVM(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestLIBSVMRoundTrip(t *testing.T) {
	d, err := Generate(Config{N: 60, Dim: 30, Separation: 1.5, Density: 0.2}, rngutil.New(31))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLIBSVM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != d.N() {
		t.Fatalf("round trip N %d != %d", back.N(), d.N())
	}
	// The written dimension is the largest PRESENT index; pad back up.
	back = PadDim(back, d.Dim())
	if back.Dim() != d.Dim() {
		t.Fatalf("round trip Dim %d != %d", back.Dim(), d.Dim())
	}
	for i := 0; i < d.N(); i++ {
		if back.Y[i] != d.Y[i] {
			t.Fatalf("row %d label %v != %v", i, back.Y[i], d.Y[i])
		}
		for j := 0; j < d.Dim(); j++ {
			if got, want := back.X.At(i, j), d.X.At(i, j); got != want {
				t.Fatalf("entry (%d,%d) %v != %v", i, j, got, want)
			}
		}
	}
}

func TestPadDim(t *testing.T) {
	m := vecmath.NewMatrix(2, 3)
	m.Set(0, 1, 2.5)
	m.Set(1, 2, -1)
	dense := &Dataset{X: m, Y: []float64{1, -1}}
	wide := PadDim(dense, 5)
	if wide.Dim() != 5 || wide.N() != 2 {
		t.Fatalf("dense PadDim shape (%d,%d)", wide.N(), wide.Dim())
	}
	if wide.X.At(0, 1) != 2.5 || wide.X.At(1, 2) != -1 || wide.X.At(0, 4) != 0 {
		t.Fatal("dense PadDim lost or invented entries")
	}
	sparse := &Dataset{X: vecmath.CSRFromDense(m), Y: []float64{1, -1}}
	ws := PadDim(sparse, 5)
	if ws.Dim() != 5 || ws.X.At(0, 1) != 2.5 || ws.X.At(1, 4) != 0 {
		t.Fatal("CSR PadDim misbehaved")
	}
	other := &Dataset{X: struct{ vecmath.AnyMatrix }{m}, Y: []float64{1, -1}}
	if wo := PadDim(other, 5); wo.Dim() != 5 || wo.X.At(0, 1) != 2.5 || wo.X.At(1, 2) != -1 || wo.X.At(0, 4) != 0 {
		t.Fatal("PadDim of unknown storage lost or invented entries")
	}
	if PadDim(dense, 2) != dense || PadDim(sparse, 3) != sparse {
		t.Fatal("already-wide datasets must be returned unchanged")
	}
}

func TestWriteLIBSVMDense(t *testing.T) {
	m := vecmath.NewMatrix(2, 3)
	m.Set(0, 1, 2.5)
	m.Set(1, 0, -1)
	d := &Dataset{X: m, Y: []float64{1, -1}}
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, d); err != nil {
		t.Fatal(err)
	}
	want := "+1 2:2.5\n-1 1:-1\n"
	if buf.String() != want {
		t.Fatalf("dense write %q, want %q", buf.String(), want)
	}
}

func TestGenerateSparse(t *testing.T) {
	cfg := Config{N: 400, Dim: 200, Separation: 1.5, Density: 0.05}
	d, err := Generate(cfg, rngutil.New(41))
	if err != nil {
		t.Fatal(err)
	}
	csr, ok := d.Sparse()
	if !ok {
		t.Fatal("Density generator should produce CSR storage")
	}
	if d.N() != 400 || d.Dim() != 200 {
		t.Fatalf("shapes N=%d Dim=%d", d.N(), d.Dim())
	}
	// Realized density concentrates near the target.
	realized := float64(csr.NNZ()) / float64(400*200)
	if math.Abs(realized-0.05) > 0.01 {
		t.Fatalf("realized density %v far from 0.05", realized)
	}
	// Determinism: the same seed reproduces the identical dataset.
	d2, _ := Generate(cfg, rngutil.New(41))
	csr2, _ := d2.Sparse()
	if csr2.NNZ() != csr.NNZ() || vecmath.MaxAbsDiff(csr.Val, csr2.Val) != 0 {
		t.Fatal("sparse generator is not deterministic")
	}
	for i := range d.Y {
		if d.Y[i] != d2.Y[i] {
			t.Fatal("sparse labels not deterministic")
		}
		if d.Y[i] != 1 && d.Y[i] != -1 {
			t.Fatalf("label %v not in {-1,+1}", d.Y[i])
		}
	}
	// The class structure must survive sparsification: the paper's label
	// rule anti-correlates margin and label.
	sep, _ := Generate(Config{N: 2000, Dim: 50, Separation: 40, Density: 0.3}, rngutil.New(42))
	var corr float64
	for i := 0; i < sep.N(); i++ {
		corr += sep.X.RowDot(i, sep.WStar) * sep.Y[i]
	}
	if corr >= 0 {
		t.Fatalf("sparse paper label rule should anti-correlate margin and label, got %v", corr)
	}
}

func TestGenerateDensityValidation(t *testing.T) {
	if _, err := Generate(Config{N: 5, Dim: 5, Density: -0.1}, rngutil.New(1)); err == nil {
		t.Fatal("negative density accepted")
	}
	if _, err := Generate(Config{N: 5, Dim: 5, Density: 1.5}, rngutil.New(1)); err == nil {
		t.Fatal("density > 1 accepted")
	}
	// Density 0 and 1 select the dense generator.
	for _, den := range []float64{0, 1} {
		d, err := Generate(Config{N: 5, Dim: 5, Density: den}, rngutil.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := d.X.(*vecmath.Matrix); !ok {
			t.Fatalf("density %v should produce dense storage", den)
		}
	}
}

// TestGenerateDenseUnchangedByDensityField pins backward compatibility:
// adding the Density field must not perturb the dense generator's draw
// sequence for existing seeds.
func TestGenerateDenseUnchangedByDensityField(t *testing.T) {
	a, _ := Generate(Config{N: 20, Dim: 6, Separation: 1.5}, rngutil.New(77))
	b, _ := Generate(Config{N: 20, Dim: 6, Separation: 1.5, Density: 0}, rngutil.New(77))
	if vecmath.MaxAbsDiff(a.X.(*vecmath.Matrix).Data, b.X.(*vecmath.Matrix).Data) != 0 {
		t.Fatal("Density=0 changed the dense draw sequence")
	}
}

// FuzzLIBSVM feeds arbitrary bytes to the parser: it must never panic, and
// any input it accepts must survive a write/re-parse round trip bit-for-bit.
func FuzzLIBSVM(f *testing.F) {
	f.Add([]byte(libsvmSample))
	f.Add([]byte("+1 1:0.5\n"))
	f.Add([]byte("0 1:1 2:-0.25 9:3e4\n1 3:7\n"))
	f.Add([]byte("-1\n+1 1:2\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := LoadLIBSVM(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteLIBSVM(&buf, d); err != nil {
			t.Fatalf("accepted input failed to serialize: %v", err)
		}
		back, err := LoadLIBSVM(&buf)
		if err != nil {
			t.Fatalf("serialized form %q rejected: %v", buf.String(), err)
		}
		back = PadDim(back, d.Dim())
		if back.N() != d.N() || back.Dim() != d.Dim() {
			t.Fatalf("round trip shape (%d,%d) != (%d,%d)", back.N(), back.Dim(), d.N(), d.Dim())
		}
		for i := 0; i < d.N(); i++ {
			if back.Y[i] != d.Y[i] {
				t.Fatalf("row %d label changed", i)
			}
			for j := 0; j < d.Dim(); j++ {
				if back.X.At(i, j) != d.X.At(i, j) {
					t.Fatalf("entry (%d,%d) changed: %v != %v", i, j, back.X.At(i, j), d.X.At(i, j))
				}
			}
		}
	})
}
