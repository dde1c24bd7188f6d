package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"spear/internal/tuple"
)

// WriteCSV drains a stream into w as CSV: a header row with "ts" plus
// the schema's field names, then one row per tuple with the timestamp
// in nanoseconds. It returns the number of tuples written.
func WriteCSV(s *Stream, w io.Writer) (int, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := csv.NewWriter(bw)
	header := make([]string, 0, s.Schema.Len()+1)
	header = append(header, "ts")
	for i := 0; i < s.Schema.Len(); i++ {
		header = append(header, s.Schema.Field(i).Name)
	}
	if err := cw.Write(header); err != nil {
		return 0, fmt.Errorf("dataset: write header: %w", err)
	}
	n := 0
	row := make([]string, len(header))
	for {
		t, ok := s.Next()
		if !ok {
			break
		}
		row[0] = strconv.FormatInt(t.Ts, 10)
		for i, v := range t.Vals {
			switch v.Kind() {
			case tuple.KindInt:
				row[i+1] = strconv.FormatInt(v.AsInt(), 10)
			case tuple.KindFloat:
				row[i+1] = strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
			case tuple.KindString:
				row[i+1] = v.AsString()
			case tuple.KindBool:
				row[i+1] = strconv.FormatBool(v.AsBool())
			default:
				return n, fmt.Errorf("dataset: tuple %d has invalid field %d", n, i)
			}
		}
		if err := cw.Write(row); err != nil {
			return n, fmt.Errorf("dataset: write row %d: %w", n, err)
		}
		n++
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return n, err
	}
	return n, bw.Flush()
}
