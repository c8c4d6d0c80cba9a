package campaign

import "encoding/json"

// This file is the cell-cache entry codec (DESIGN.md §3b), the one
// reader and writer of the bytes the cell cache and the results
// warehouse hold under a cell's content address. An entry is the JSON
// object {"cell": name, "trials": [[measurement, ...], ...]}: every
// trial's measurements, in trial order.
//
// Encoding is json.Marshal, so the bytes on disk are the ones every
// earlier release wrote. Decoding scans exactly the form RunSpec's
// json.Marshal writes, without reflection and with one allocation for
// the values, and hands any other input to json.Unmarshal; it therefore
// accepts and rejects exactly what json.Unmarshal does, with the same
// names and values (FuzzCellEntry pins this).

// cellEntry is the JSON shape of a cell-cache entry.
type cellEntry struct {
	Cell   string          `json:"cell"`
	Trials [][]Measurement `json:"trials"`
}

// encodeCellEntry returns the cache bytes of one cell's trials.
func encodeCellEntry(cell string, trials [][]Measurement) ([]byte, error) {
	return json.Marshal(cellEntry{Cell: cell, Trials: trials})
}

// CellEntry is one decoded cell-cache entry, stored flat: every
// measurement's value in trial order. Names and trial boundaries are
// kept only for entries not in the form RunSpec writes (each trial one
// measurement, named after the entry's cell).
type CellEntry struct {
	Cell   string    // the entry's own cell name
	values []float64 // every measurement's value, trial by trial
	names  []string  // every measurement's cell; nil when all are Cell
	ends   []int     // end of each trial in values; nil when each holds one
	trials int
}

// Trials returns the entry's trial count.
func (e *CellEntry) Trials() int { return e.trials }

// Values returns the values of the entry's measurements named cell, in
// trial order. The result may share the entry's storage: do not modify
// it.
func (e *CellEntry) Values(cell string) []float64 {
	if e.names == nil {
		if cell != e.Cell {
			return nil
		}
		return e.values[:len(e.values):len(e.values)]
	}
	var xs []float64
	for i, name := range e.names {
		if name == cell {
			xs = append(xs, e.values[i])
		}
	}
	return xs
}

// trial appends trial i's measurements to dst.
func (e *CellEntry) trial(i int, dst []Measurement) []Measurement {
	if e.ends == nil {
		return append(dst, Measurement{Cell: e.Cell, Value: e.values[i]})
	}
	lo := 0
	if i > 0 {
		lo = e.ends[i-1]
	}
	for j := lo; j < e.ends[i]; j++ {
		dst = append(dst, Measurement{Cell: e.names[j], Value: e.values[j]})
	}
	return dst
}

// DecodeCellEntry decodes the cache bytes of one cell. It accepts and
// rejects exactly the inputs json.Unmarshal does into the entry shape,
// and yields the same cell names and values.
func DecodeCellEntry(data []byte) (CellEntry, error) {
	if e, ok := scanCellEntry(data); ok {
		return e, nil
	}
	var raw cellEntry
	if err := json.Unmarshal(data, &raw); err != nil {
		return CellEntry{}, err
	}
	e := CellEntry{Cell: raw.Cell, trials: len(raw.Trials)}
	for _, trial := range raw.Trials {
		for _, m := range trial {
			e.values = append(e.values, m.Value)
			e.names = append(e.names, m.Cell)
		}
		e.ends = append(e.ends, len(e.values))
	}
	return e, nil
}

// scanCellEntry decodes data if it is in exactly the form RunSpec's
// json.Marshal writes — every trial one measurement named after the
// entry's cell, every value a round count — reporting false for
// anything else. The cell name must be printable ASCII without escapes,
// so it means what it spells; a value must be a JSON integer of at most
// 16 digits.
func scanCellEntry(data []byte) (CellEntry, bool) {
	s := entryScanner{b: data}
	if !s.lit(`{"cell":`) {
		return CellEntry{}, false
	}
	cell, ok := s.str()
	if !ok || !s.lit(`,"trials":[`) {
		return CellEntry{}, false
	}
	e := CellEntry{Cell: string(cell)}
	// Every trial opens with own and holds at least three more bytes,
	// which bounds the trial count.
	own := `[{"cell":"` + e.Cell + `","value":`
	e.values = make([]float64, 0, len(data)/(len(own)+3)+1)
	for first := true; !s.next(']'); first = false {
		if !first && !s.next(',') || !s.lit(own) {
			return CellEntry{}, false
		}
		v, ok := s.count()
		if !ok || !s.next('}') || !s.next(']') {
			return CellEntry{}, false
		}
		e.values = append(e.values, v)
		e.trials++
	}
	return e, s.next('}') && s.i == len(data)
}

// entryScanner walks the bytes of a cell entry.
type entryScanner struct {
	b []byte
	i int
}

// next consumes c if the input continues with it.
func (s *entryScanner) next(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// lit consumes tok if the input continues with it.
func (s *entryScanner) lit(tok string) bool {
	if len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		return false
	}
	s.i += len(tok)
	return true
}

// str consumes a string of printable ASCII without escapes and returns
// its contents.
func (s *entryScanner) str() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			str := s.b[s.i+1 : j]
			s.i = j + 1
			return str, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// count consumes up to 16 digits of a JSON integer (no sign, no leading
// zero) and returns its value; a longer number leaves a digit that fails
// the caller's next expected byte, as does a fraction or exponent. The
// int fits, and converting it rounds exactly as strconv.ParseFloat does.
func (s *entryScanner) count() (float64, bool) {
	start, v := s.i, 0
	for s.i < len(s.b) && s.i-start < 16 && s.b[s.i]-'0' < 10 {
		v = v*10 + int(s.b[s.i]-'0')
		s.i++
	}
	n := s.i - start
	return float64(v), n > 0 && (s.b[start] != '0' || n == 1)
}
