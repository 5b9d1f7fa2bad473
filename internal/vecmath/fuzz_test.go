package vecmath

import (
	"math"
	"testing"
)

// FuzzCSRRoundTrip feeds arbitrary byte strings as a tiny dense matrix and
// checks the CSR invariants: compression validates under NewCSR, expands
// back to the identical dense matrix, and the row kernels agree with the
// dense ones bit-for-bit. Every four consecutive bytes also pick a block of
// rows (repeats allowed) on which CSR RowDot4 and RowAxpy4 must match the
// dense single-row kernels.
func FuzzCSRRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint8(4), []byte{0, 1, 0, 2, 0, 0, 3, 0, 0, 0, 0, 4})
	f.Add(uint8(1), uint8(1), []byte{0})
	f.Add(uint8(2), uint8(2), []byte{255, 0, 0, 128})
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte) {
		r := int(rows)%8 + 1
		c := int(cols)%8 + 1
		m := NewMatrix(r, c)
		for i := range m.Data {
			if i < len(data) && data[i] != 0 {
				// Spread the byte into a signed value with exact zeros kept.
				m.Data[i] = float64(int(data[i]) - 128)
			}
		}
		csr := CSRFromDense(m)
		// The compression must satisfy the NewCSR invariants verbatim.
		if _, err := NewCSR(csr.Rows, csr.Cols, csr.RowPtr, csr.ColIdx, csr.Val); err != nil {
			t.Fatalf("CSRFromDense output fails validation: %v", err)
		}
		if back := csr.ToDense(); MaxAbsDiff(m.Data, back.Data) != 0 {
			t.Fatal("dense -> CSR -> dense is not the identity")
		}
		x := make([]float64, c)
		for j := range x {
			x[j] = (float64(j) - 1.5) / 3 // inexact, so a reordered fold shows
		}
		for i := 0; i < r; i++ {
			if d, s := m.RowDot(i, x), csr.RowDot(i, x); d != s {
				t.Fatalf("row %d: dense dot %v != csr dot %v", i, d, s)
			}
			dd, ss := Clone(x), Clone(x)
			m.RowAxpy(2.5, i, dd)
			csr.RowAxpy(2.5, i, ss)
			if MaxAbsDiff(dd, ss) != 0 {
				t.Fatalf("row %d: RowAxpy diverged", i)
			}
		}
		for b := 0; b+4 <= len(data); b += 4 {
			var rows [4]int
			var alpha [4]float64
			for k := range rows {
				rows[k] = int(data[b+k]) % r
				alpha[k] = float64(int(data[b+k])-128) / 7
			}
			dots := csr.RowDot4(rows, x)
			want, got := Clone(x), Clone(x)
			csr.RowAxpy4(alpha, rows, got)
			for k, i := range rows {
				if d := m.RowDot(i, x); math.Float64bits(d) != math.Float64bits(dots[k]) {
					t.Fatalf("rows %v: csr RowDot4[%d] %v != dense dot %v", rows, k, dots[k], d)
				}
				m.RowAxpy(alpha[k], i, want)
			}
			for j := range want {
				if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
					t.Fatalf("rows %v: csr RowAxpy4 dst[%d] %v != dense %v", rows, j, got[j], want[j])
				}
			}
		}
	})
}
