package rcache

import (
	"encoding/json"
	"strconv"

	"repro/internal/metrics"
)

// record is the stored entry (on disk and on the wire). Schema and Key are
// stored redundantly (both already determine the entry's path) so a record
// that was tampered with, cross-copied, or half-written is detected and
// discarded instead of served.
type record struct {
	Schema int         `json:"schema"`
	Key    string      `json:"key"`
	Run    metrics.Run `json:"run"`
}

// encodeRecord renders the entry bytes stored on disk and PUT to the remote
// for the key whose hex form is name.
func encodeRecord(name string, r metrics.Run) ([]byte, error) {
	return json.Marshal(record{Schema: SchemaVersion, Key: name, Run: r})
}

// decodeRecord parses and validates entry bytes from either tier: the record
// must decode and claim exactly this schema and the key whose hex form is
// name, or it is not served.
func decodeRecord(b []byte, name string) (metrics.Run, bool) {
	schema, k, r, ok := readRecord(b)
	if !ok || schema != SchemaVersion || string(k) != name {
		return metrics.Run{}, false
	}
	return r, true
}

// readRecord decodes entry bytes into the schema, key and run they claim.
// The bytes encodeRecord writes take scanRecord's allocation-light path;
// any other spelling encoding/json accepts — whitespace, reordered or
// case-folded names, escapes, unknown fields — takes encoding/json, so
// every record any build has written decodes as it always has.
func readRecord(b []byte) (schema int, key []byte, r metrics.Run, ok bool) {
	if schema, key, r, ok = scanRecord(b); ok {
		return schema, key, r, true
	}
	var rec record
	if json.Unmarshal(b, &rec) != nil {
		return 0, nil, metrics.Run{}, false
	}
	return rec.Schema, []byte(rec.Key), rec.Run, true
}

// scanRecord reads exactly encodeRecord's layout: no whitespace, the
// fields in declaration order under their exact names, numbers in the
// strict JSON grammar, and strings of printable ASCII with no escapes. It
// reports false on anything else, leaving the input to encoding/json, and
// never accepts bytes encoding/json would refuse or decode differently
// (FuzzDecodeRecord checks both). Adding a metrics.Run field makes it
// refuse every record until a line is added here, which
// TestScanRecordCoversEveryField catches.
func scanRecord(b []byte) (schema int, key []byte, r metrics.Run, ok bool) {
	s := scanner{b: b}
	schema = int(s.int(`{"schema":`, strconv.IntSize))
	key = s.str(`,"key":`)
	r.Workload = string(s.str(`,"run":{"Workload":`))
	r.Scheduler = string(s.str(`,"Scheduler":`))
	r.Cores = int(s.int(`,"Cores":`, strconv.IntSize))
	r.Config = string(s.str(`,"Config":`))
	r.Cycles = s.int(`,"Cycles":`, 64)
	r.Instructions = s.int(`,"Instructions":`, 64)
	r.Tasks = s.int(`,"Tasks":`, 64)
	r.BusyCycles = s.int(`,"BusyCycles":`, 64)
	r.IdleCycles = s.int(`,"IdleCycles":`, 64)
	r.DispatchCyc = s.int(`,"DispatchCyc":`, 64)
	r.L1Hits = s.int(`,"L1Hits":`, 64)
	r.L1Misses = s.int(`,"L1Misses":`, 64)
	r.L2Hits = s.int(`,"L2Hits":`, 64)
	r.L2Misses = s.int(`,"L2Misses":`, 64)
	r.L2Writebacks = s.int(`,"L2Writebacks":`, 64)
	r.OffchipTransfers = s.int(`,"OffchipTransfers":`, 64)
	r.OffchipBytes = s.int(`,"OffchipBytes":`, 64)
	r.BusQueueCycles = s.int(`,"BusQueueCycles":`, 64)
	r.BusUtilization = s.float(`,"BusUtilization":`)
	r.Steals = s.int(`,"Steals":`, 64)
	r.StealProbes = s.int(`,"StealProbes":`, 64)
	r.FailedSteals = s.int(`,"FailedSteals":`, 64)
	r.MaxPremature = int(s.int(`,"MaxPremature":`, strconv.IntSize))
	r.WSDistinctBytes = s.int(`,"WSDistinctBytes":`, 64)
	r.WSWindowHWBytes = s.int(`,"WSWindowHWBytes":`, 64)
	s.lit(`}}`)
	if s.bad || len(s.b) != 0 {
		return 0, nil, metrics.Run{}, false
	}
	return schema, key, r, true
}

// scanner is scanRecord's cursor. A failed step sets bad, and every later
// step is then a no-op, so the caller checks once at the end.
type scanner struct {
	b   []byte
	bad bool
}

// lit consumes text exactly.
func (s *scanner) lit(text string) {
	if s.bad || len(s.b) < len(text) || string(s.b[:len(text)]) != text {
		s.bad = true
		return
	}
	s.b = s.b[len(text):]
}

// str consumes prefix and then a string of printable ASCII with no escape,
// returning its contents (a subslice of the input).
func (s *scanner) str(prefix string) []byte {
	if s.lit(prefix); s.bad || len(s.b) == 0 || s.b[0] != '"' {
		s.bad = true
		return nil
	}
	for i, c := range s.b[1:] {
		if c == '"' {
			v := s.b[1 : 1+i]
			s.b = s.b[2+i:]
			return v
		}
		if c < ' ' || c > '~' || c == '\\' {
			break
		}
	}
	s.bad = true
	return nil
}

// int consumes prefix and then an integer: an optional minus and either 0
// or a digit run without a leading zero, as JSON spells it. strconv would
// also take a plus sign, leading zeros and underscores, which JSON refuses,
// so the text is checked before it is parsed. A value that overflows
// bitSize bits is refused, as encoding/json refuses it.
func (s *scanner) int(prefix string, bitSize int) int64 {
	s.lit(prefix)
	n := s.intPart(0)
	if s.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(s.b[:n]), 10, bitSize)
	if err != nil {
		s.bad = true
		return 0
	}
	s.b = s.b[n:]
	return v
}

// float consumes prefix and then a number in the full JSON grammar: the
// integer part, an optional fraction and an optional exponent. The strict
// check keeps out what strconv.ParseFloat alone would take (Inf, NaN, hex
// mantissas, underscores, a leading plus or dot); a value out of float64's
// range is refused, as encoding/json refuses it.
func (s *scanner) float(prefix string) float64 {
	s.lit(prefix)
	n := s.intPart(0)
	if n < len(s.b) && s.b[n] == '.' {
		n = s.digits(n + 1)
	}
	if n < len(s.b) && (s.b[n] == 'e' || s.b[n] == 'E') {
		n++
		if n < len(s.b) && (s.b[n] == '+' || s.b[n] == '-') {
			n++
		}
		n = s.digits(n)
	}
	if s.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(s.b[:n]), 64)
	if err != nil {
		s.bad = true
		return 0
	}
	s.b = s.b[n:]
	return v
}

// intPart returns the end of the JSON integer part starting at offset i.
func (s *scanner) intPart(i int) int {
	if i < len(s.b) && s.b[i] == '-' {
		i++
	}
	if i < len(s.b) && s.b[i] == '0' {
		return i + 1
	}
	return s.digits(i)
}

// digits returns the end of the non-empty digit run starting at offset i.
func (s *scanner) digits(i int) int {
	j := i
	for j < len(s.b) && '0' <= s.b[j] && s.b[j] <= '9' {
		j++
	}
	if j == i {
		s.bad = true
	}
	return j
}
