package serve

import (
	"fmt"
	"strconv"

	"repro/internal/csi"
)

// The exactness oracle for the wire's decimal fast path: the m-line parser
// as it was when every float went through strconv, kept verbatim (renamed
// with a ref prefix). ParseMeasurement must agree with it bit for bit on
// every line it accepts and word for word on every error, because the
// serving layer's byte-identical-to-batch contract rests on the parsed
// floats.

// refFloat is fieldScanner.float before the fast path.
func refFloat(f *fieldScanner) (float64, error) {
	tok, ok := f.next()
	if !ok {
		return 0, fmt.Errorf("serve: line is missing a numeric field")
	}
	return strconv.ParseFloat(string(tok), 64)
}

func refParseMeasurement(line []byte, m *csi.Measurement) error {
	f := fieldScanner{b: line}
	if tok, ok := f.next(); !ok || string(tok) != "m" {
		return fmt.Errorf("serve: expected an m line, got %q", line)
	}
	var err error
	if m.Timestamp, err = refFloat(&f); err != nil {
		return fmt.Errorf("serve: m timestamp: %v", err)
	}
	for a := range m.RSSI {
		if m.RSSI[a], err = refFloat(&f); err != nil {
			return fmt.Errorf("serve: m rssi[%d]: %v", a, err)
		}
	}
	for a := range m.CSI {
		for k := range m.CSI[a] {
			if m.CSI[a][k], err = refFloat(&f); err != nil {
				return fmt.Errorf("serve: m csi[%d][%d]: %v", a, k, err)
			}
		}
	}
	if _, extra := f.next(); extra {
		return fmt.Errorf("serve: m line has more fields than the declared shape")
	}
	return nil
}
