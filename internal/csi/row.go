package csi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// AppendRow appends m's measurement row to dst, without a newline: the
// timestamp, the RSSI of each antenna, then the CSI antenna-major, each
// float 'g'/-1 and separated by spaces. A wbtrace row is one, and so is
// the serving wire's m line after its verb.
func AppendRow(dst []byte, m Measurement) []byte {
	dst = strconv.AppendFloat(dst, m.Timestamp, 'g', -1, 64)
	for _, v := range m.RSSI {
		dst = strconv.AppendFloat(append(dst, ' '), v, 'g', -1, 64)
	}
	for _, row := range m.CSI {
		for _, v := range row {
			dst = strconv.AppendFloat(append(dst, ' '), v, 'g', -1, 64)
		}
	}
	return dst
}

// ErrShortRow and ErrLongRow are the causes of a RowError for a row with
// fewer or more fields than the measurement's shape.
var (
	ErrShortRow = errors.New("csi: row is missing a numeric field")
	ErrLongRow  = errors.New("csi: row has more fields than the measurement's shape")
)

// RowError reports which field of a row failed to parse ("timestamp",
// "rssi[a]" or "csi[a][k]"; none for ErrLongRow) and why: ErrShortRow,
// ErrLongRow or strconv.ParseFloat's error for its token.
type RowError struct {
	Field string
	Err   error
}

func (e *RowError) Error() string {
	if e.Field == "" {
		return e.Err.Error()
	}
	return e.Field + ": " + e.Err.Error()
}

func (e *RowError) Unwrap() error { return e.Err }

// ParseRow parses a measurement row into m, whose shape declares the
// fields: the timestamp, an RSSI entry per len(m.RSSI), then every CSI
// row. Fields are separated by one or more spaces, and each float equals
// strconv.ParseFloat of its token bit for bit. m is overwritten in place,
// and a row that parses allocates nothing. Every error is a *RowError.
func ParseRow(row []byte, m *Measurement) error {
	s := rowScanner{b: row}
	var err error
	if m.Timestamp, err = s.float(); err != nil {
		return &RowError{Field: "timestamp", Err: err}
	}
	for a := range m.RSSI {
		if m.RSSI[a], err = s.float(); err != nil {
			return &RowError{Field: fmt.Sprintf("rssi[%d]", a), Err: err}
		}
	}
	for a, csi := range m.CSI {
		for k := range csi {
			if csi[k], err = s.float(); err != nil {
				return &RowError{Field: fmt.Sprintf("csi[%d][%d]", a, k), Err: err}
			}
		}
	}
	if len(bytes.TrimLeft(row[s.i:], " ")) > 0 {
		return &RowError{Err: ErrLongRow}
	}
	return nil
}

// rowScanner reads a row's space-separated floats without allocating.
type rowScanner struct {
	b []byte
	i int
}

// float64Pow10 and uint64Pow10 hold the powers of ten up to 10^19, all
// exact in both types.
var (
	float64Pow10 = [20]float64{
		1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
		1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	}
	uint64Pow10 = [20]uint64{
		1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
		1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	}
)

// float reads the next token as a float64, equal bit for bit to
// strconv.ParseFloat(token, 64). A plain decimal of at most 19 digits —
// optional '-', digits, optional '.', digits — is converted in place as
// mant/10^frac, correctly rounded: by one float64 division when mant <
// 2^53, since both operands are then exact (strconv's own exact case),
// and otherwise by one 128-by-64-bit integer division rounded half to
// even with the remainder as the sticky bit. Every other token goes to
// strconv, which supplies its value or its error; a row with no token
// left gives ErrShortRow.
func (s *rowScanner) float() (float64, error) {
	b, i := s.b, s.i
	for i < len(b) && b[i] == ' ' {
		i++
	}
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64 // wraps past 19 digits, which fall back below
	j := i
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	digits, frac := i-j, 0
	if i < len(b) && b[i] == '.' {
		i++
		j = i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		frac = i - j
		digits += frac
	}
	if digits == 0 || digits > 19 || i < len(b) && b[i] != ' ' {
		for i < len(b) && b[i] != ' ' {
			i++
		}
		if s.i = i; i == start {
			return 0, ErrShortRow
		}
		return strconv.ParseFloat(string(b[start:i]), 64)
	}
	s.i = i
	if mant < 1<<53 {
		v := float64(mant) / float64Pow10[frac]
		if neg {
			v = -v
		}
		return v, nil
	}
	// Normalise mant and 10^frac to a set top bit; the quotient
	// (mant<<63)/den then has 63 or 64 bits, of which the top 53 are the
	// result and the rest round it.
	den := uint64Pow10[frac]
	ms, ds := bits.LeadingZeros64(mant), bits.LeadingZeros64(den)
	n, d := mant<<ms, den<<ds
	q, r := bits.Div64(n>>1, n<<63, d)
	shift := 11 - bits.LeadingZeros64(q)
	m, dropped, half := q>>shift, q&(1<<shift-1), uint64(1)<<(shift-1)
	if dropped > half || dropped == half && (r != 0 || m&1 == 1) {
		m++
	}
	exp := shift - 63 + ds - ms // the value is m * 2^exp
	if m == 1<<53 {
		m >>= 1
		exp++
	}
	v := uint64(exp+52+1023)<<52 | m&(1<<52-1)
	if neg {
		v |= 1 << 63
	}
	return math.Float64frombits(v), nil
}
