package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/sim"
)

// fromWire converts a wire int64 back to virtual time.
func fromWire(v int64) sim.Time { return sim.Time(v) }

// The compact JSONL export: one JSON object per line, in deterministic
// order — spans in id order, then events, then decisions, each in recording
// order. The encoder is hand-rolled (appendJSONString/strconv) so the byte
// stream is a pure function of the Set; the decoder rides encoding/json.
// Encode(Decode(Encode(x))) == Encode(Decode(x)) — the canonical-form fixed
// point the fuzz targets enforce.

// appendJSONString appends s as a JSON string literal. Invalid UTF-8 is
// canonicalized to U+FFFD, matching what encoding/json does on decode, so a
// re-encode of a decoded stream reproduces it byte for byte.
func appendJSONString(b []byte, s string) []byte {
	if !utf8.ValidString(s) {
		s = strings.ToValidUTF8(s, "�")
	}
	b = append(b, '"')
	for _, r := range s {
		switch r {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			if r < 0x20 {
				b = append(b, fmt.Sprintf(`\u%04x`, r)...)
			} else {
				b = utf8.AppendRune(b, r)
			}
		}
	}
	return append(b, '"')
}

// appendJSONFloat appends f in shortest-round-trip form; NaN and infinities
// (unrepresentable in JSON) canonicalize to 0.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		f = 0
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

func appendInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

// appendSpanJSONL appends one span line (no trailing newline).
func appendSpanJSONL(b []byte, s Span) []byte {
	b = append(b, `{"t":"span","id":`...)
	b = appendInt(b, int64(s.ID))
	b = append(b, `,"parent":`...)
	b = appendInt(b, int64(s.Parent))
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, s.Kind.String())
	b = append(b, `,"name":`...)
	b = appendJSONString(b, s.Name)
	b = append(b, `,"app":`...)
	b = appendInt(b, int64(s.App))
	b = append(b, `,"gid":`...)
	b = appendInt(b, int64(s.GID))
	b = append(b, `,"arg":`...)
	b = appendInt(b, s.Arg)
	b = append(b, `,"start":`...)
	b = appendInt(b, int64(s.Start))
	b = append(b, `,"end":`...)
	b = appendInt(b, int64(s.End))
	return append(b, '}')
}

// appendEventJSONL appends one event line.
func appendEventJSONL(b []byte, e Event) []byte {
	b = append(b, `{"t":"event","kind":`...)
	b = appendJSONString(b, e.Kind.String())
	b = append(b, `,"name":`...)
	b = appendJSONString(b, e.Name)
	b = append(b, `,"app":`...)
	b = appendInt(b, int64(e.App))
	b = append(b, `,"gid":`...)
	b = appendInt(b, int64(e.GID))
	b = append(b, `,"arg":`...)
	b = appendInt(b, e.Arg)
	b = append(b, `,"at":`...)
	b = appendInt(b, int64(e.At))
	return append(b, '}')
}

// appendDecisionJSONL appends one decision-audit line.
func appendDecisionJSONL(b []byte, d Decision) []byte {
	b = append(b, `{"t":"decision","at":`...)
	b = appendInt(b, int64(d.At))
	b = append(b, `,"app":`...)
	b = appendInt(b, int64(d.App))
	b = append(b, `,"class":`...)
	b = appendJSONString(b, d.Class)
	b = append(b, `,"node":`...)
	b = appendInt(b, int64(d.Node))
	b = append(b, `,"tenant":`...)
	b = appendInt(b, d.Tenant)
	b = append(b, `,"policy":`...)
	b = appendJSONString(b, d.Policy)
	b = append(b, `,"picked":`...)
	b = appendInt(b, int64(d.Picked))
	b = append(b, `,"sft_samples":`...)
	b = appendInt(b, int64(d.SFTSamples))
	b = append(b, `,"sft_exec":`...)
	b = appendInt(b, int64(d.SFTExec))
	b = append(b, `,"rows":[`...)
	for i, row := range d.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"gid":`...)
		b = appendInt(b, int64(row.GID))
		b = append(b, `,"node":`...)
		b = appendInt(b, int64(row.Node))
		b = append(b, `,"health":`...)
		b = appendJSONString(b, row.Health)
		b = append(b, `,"load":`...)
		b = appendInt(b, int64(row.Load))
		b = append(b, `,"weight":`...)
		b = appendJSONFloat(b, row.Weight)
		if row.FreeFrac != 0 || row.FreeMem != 0 {
			b = append(b, `,"free_frac":`...)
			b = appendInt(b, int64(row.FreeFrac))
			b = append(b, `,"free_mem":`...)
			b = appendInt(b, row.FreeMem)
		}
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

// AppendJSONL appends the whole set in JSONL form to b and returns it.
func (s *Set) AppendJSONL(b []byte) []byte {
	for _, sp := range s.Spans {
		b = appendSpanJSONL(b, sp)
		b = append(b, '\n')
	}
	for _, e := range s.Events {
		b = appendEventJSONL(b, e)
		b = append(b, '\n')
	}
	for _, d := range s.Decisions {
		b = appendDecisionJSONL(b, d)
		b = append(b, '\n')
	}
	return b
}

// WriteJSONL writes the set in JSONL form.
func (s *Set) WriteJSONL(w io.Writer) error {
	_, err := w.Write(s.AppendJSONL(nil))
	return err
}

// jsonlRecord is the union decode target for one JSONL line.
type jsonlRecord struct {
	T      string `json:"t"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	App    int    `json:"app"`
	GID    int    `json:"gid"`
	Arg    int64  `json:"arg"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	At     int64  `json:"at"`

	Class      string          `json:"class"`
	Node       int             `json:"node"`
	Tenant     int64           `json:"tenant"`
	Policy     string          `json:"policy"`
	Picked     int             `json:"picked"`
	SFTSamples int             `json:"sft_samples"`
	SFTExec    int64           `json:"sft_exec"`
	Rows       []jsonlAuditRow `json:"rows"`
}

type jsonlAuditRow struct {
	GID      int     `json:"gid"`
	Node     int     `json:"node"`
	Health   string  `json:"health"`
	Load     int     `json:"load"`
	Weight   float64 `json:"weight"`
	FreeFrac int     `json:"free_frac"`
	FreeMem  int64   `json:"free_mem"`
}

// ParseJSONL decodes a JSONL stream back into a Set. Lines must be valid
// JSON objects with a known "t"; blank lines are skipped. Span ids are
// reassigned in stream order (the encoder emits them in id order, so a
// round trip is the identity on encoder output).
func ParseJSONL(data []byte) (*Set, error) {
	set := &Set{}
	for ln, line := range bytes.Split(data, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", ln+1, err)
		}
		switch rec.T {
		case "span":
			k, ok := KindByName(rec.Kind)
			if !ok {
				return nil, fmt.Errorf("trace: jsonl line %d: unknown span kind %q", ln+1, rec.Kind)
			}
			parent := SpanID(rec.Parent)
			if parent < 0 {
				parent = 0
			}
			set.Spans = append(set.Spans, Span{
				ID: SpanID(len(set.Spans) + 1), Parent: parent, Kind: k,
				Name: rec.Name, App: rec.App, GID: rec.GID, Arg: rec.Arg,
				Start: fromWire(rec.Start), End: fromWire(rec.End),
			})
		case "event":
			k, ok := KindByName(rec.Kind)
			if !ok {
				return nil, fmt.Errorf("trace: jsonl line %d: unknown event kind %q", ln+1, rec.Kind)
			}
			set.Events = append(set.Events, Event{
				Kind: k, Name: rec.Name, App: rec.App, GID: rec.GID,
				Arg: rec.Arg, At: fromWire(rec.At),
			})
		case "decision":
			d := Decision{
				At: fromWire(rec.At), App: rec.App, Class: rec.Class,
				Node: rec.Node, Tenant: rec.Tenant, Policy: rec.Policy, Picked: rec.Picked,
				SFTSamples: rec.SFTSamples, SFTExec: fromWire(rec.SFTExec),
			}
			for _, row := range rec.Rows {
				d.Rows = append(d.Rows, DecisionRow(row))
			}
			set.Decisions = append(set.Decisions, d)
		default:
			return nil, fmt.Errorf("trace: jsonl line %d: unknown record type %q", ln+1, rec.T)
		}
	}
	return set, nil
}
