package dataset

// LIBSVM-format IO. The sparse datasets the gradient-coding literature
// benchmarks on (news20, RCV1, ...) ship in this format: one example per
// line, "<label> <index>:<value> ...", indices 1-based and strictly
// ascending within a line. LoadLIBSVM parses straight into CSR storage, so
// a loaded dataset's gradients cost O(nnz) end to end.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"bcc/internal/vecmath"
)

// LoadLIBSVM reads a LIBSVM-format dataset. Labels are mapped to {-1, +1}
// by sign (so 0/1-labeled and +-1-labeled files both work); blank lines and
// lines starting with '#' are skipped, and a trailing "# comment" on a data
// line is ignored. Feature indices must be >= 1 and strictly ascending
// within a line; values must be finite. The feature dimension is the
// largest index seen (pass the result through PadDim to widen it).
func LoadLIBSVM(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		y      []float64
		rowPtr = []int{0}
		colIdx []int
		vals   []float64
		dim    int
		lineNo int
	)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		label, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || math.IsNaN(label) || math.IsInf(label, 0) {
			return nil, fmt.Errorf("dataset: libsvm line %d: bad label %q", lineNo, fields[0])
		}
		prev := 0
		for _, tok := range fields[1:] {
			colon := strings.IndexByte(tok, ':')
			if colon <= 0 {
				return nil, fmt.Errorf("dataset: libsvm line %d: bad feature %q", lineNo, tok)
			}
			idx, err := strconv.Atoi(tok[:colon])
			if err != nil || idx < 1 {
				return nil, fmt.Errorf("dataset: libsvm line %d: bad feature index %q", lineNo, tok)
			}
			if idx <= prev {
				return nil, fmt.Errorf("dataset: libsvm line %d: feature indices not strictly ascending at %q", lineNo, tok)
			}
			v, err := strconv.ParseFloat(tok[colon+1:], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: libsvm line %d: bad feature value %q", lineNo, tok)
			}
			prev = idx
			colIdx = append(colIdx, idx-1)
			vals = append(vals, v)
			if idx > dim {
				dim = idx
			}
		}
		if label > 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
		rowPtr = append(rowPtr, len(vals))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: libsvm read: %w", err)
	}
	if len(y) == 0 {
		return nil, fmt.Errorf("dataset: libsvm input holds no examples")
	}
	x, err := vecmath.NewCSR(len(y), dim, rowPtr, colIdx, vals)
	if err != nil {
		return nil, fmt.Errorf("dataset: libsvm: %w", err)
	}
	return &Dataset{X: x, Y: y}, nil
}

// WriteLIBSVM writes the dataset in LIBSVM format (1-based indices, labels
// +1/-1, values in shortest round-trippable decimal form). Only stored
// entries are written, so CSR datasets serialize in O(nnz).
func WriteLIBSVM(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	rows, cols := d.X.Dims()
	switch x := d.X.(type) {
	case *vecmath.CSR:
		for i := 0; i < rows; i++ {
			writeLabel(bw, d.Y[i])
			for k := x.RowPtr[i]; k < x.RowPtr[i+1]; k++ {
				writeEntry(bw, x.ColIdx[k], x.Val[k])
			}
			bw.WriteByte('\n')
		}
	default:
		for i := 0; i < rows; i++ {
			writeLabel(bw, d.Y[i])
			for j := 0; j < cols; j++ {
				if v := d.X.At(i, j); v != 0 {
					writeEntry(bw, j, v)
				}
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

func writeLabel(bw *bufio.Writer, y float64) {
	if y > 0 {
		bw.WriteString("+1")
	} else {
		bw.WriteString("-1")
	}
}

func writeEntry(bw *bufio.Writer, col int, v float64) {
	bw.WriteByte(' ')
	bw.WriteString(strconv.Itoa(col + 1))
	bw.WriteByte(':')
	bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
}

// PadDim widens the dataset's feature dimension to at least dim (a LIBSVM
// file's dimension is only the largest index PRESENT; training against a
// model of known dimension needs the full width). The padded columns hold
// zeros. It returns d unchanged when already wide enough; CSR padding is
// O(1) (shared storage, wider Cols), dense padding copies into a wider
// matrix.
func PadDim(d *Dataset, dim int) *Dataset {
	rows, cols := d.X.Dims()
	if cols >= dim {
		return d
	}
	switch x := d.X.(type) {
	case *vecmath.CSR:
		padded := *x
		padded.Cols = dim
		return &Dataset{X: &padded, Y: d.Y, WStar: d.WStar}
	case *vecmath.Matrix:
		wide := vecmath.NewMatrix(rows, dim)
		for i := 0; i < rows; i++ {
			copy(wide.Row(i), x.Row(i))
		}
		return &Dataset{X: wide, Y: d.Y, WStar: d.WStar}
	default:
		// Unknown storage: gather the entries through the interface.
		wide := vecmath.NewMatrix(rows, dim)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				wide.Set(i, j, d.X.At(i, j))
			}
		}
		return &Dataset{X: wide, Y: d.Y, WStar: d.WStar}
	}
}
