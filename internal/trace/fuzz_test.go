package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// FuzzParseJSONL hammers the JSONL decoder with arbitrary bytes. Whatever it
// accepts must re-encode canonically: Encode(Decode(x)) is a fixed point of
// Encode∘Decode, and the canonical form must itself be valid JSONL and valid
// input to the Chrome exporter.
func FuzzParseJSONL(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Add(sampleSet().AppendJSONL(nil))
	f.Add([]byte(`{"t":"span","id":1,"parent":0,"kind":"request","name":"MC","app":1,"gid":0,"arg":0,"start":5,"end":-1}`))
	f.Add([]byte(`{"t":"event","kind":"wake","name":"","app":1,"gid":0,"arg":0,"at":9}`))
	f.Add([]byte(`{"t":"decision","at":1,"app":1,"class":"MC","node":0,"tenant":1,"policy":"GMin","picked":0,"sft_samples":0,"sft_exec":0,"rows":[]}`))
	f.Add([]byte(`{"t":"decision","rows":[{"gid":0,"health":"Healthy","weight":1e999}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := ParseJSONL(data)
		if err != nil {
			return
		}
		canon := set.AppendJSONL(nil)
		back, err := ParseJSONL(canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon)
		}
		canon2 := back.AppendJSONL(nil)
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("encode∘decode is not a fixed point:\n%s\nvs\n%s", canon, canon2)
		}
		if chrome := set.AppendChrome(nil); !json.Valid(chrome) {
			t.Fatalf("Chrome export of accepted set is invalid JSON:\n%s", chrome)
		}
	})
}

// FuzzSpanEncode builds a span from arbitrary field values and checks the
// hand-rolled encoder emits a line the stock decoder accepts and the JSONL
// round trip preserves.
func FuzzSpanEncode(f *testing.F) {
	f.Add(int32(1), int32(0), uint8(1), "MC", 1, 0, int64(7), int64(100), int64(900))
	f.Add(int32(2), int32(-5), uint8(200), "bad\xffname\n", -1, -1, int64(-1), int64(-1), int64(-1))
	f.Fuzz(func(t *testing.T, id, parent int32, kind uint8, name string,
		app, gid int, arg, start, end int64) {
		in := Span{
			ID: SpanID(id), Parent: SpanID(parent), Kind: Kind(kind) % kindCount,
			Name: name, App: app, GID: gid, Arg: arg,
			Start: sim.Time(start), End: sim.Time(end),
		}
		line := appendSpanJSONL(nil, in)
		if !json.Valid(line) {
			t.Fatalf("span line is not valid JSON: %s", line)
		}
		set, err := ParseJSONL(line)
		if err != nil {
			t.Fatalf("span line does not parse: %v\n%s", err, line)
		}
		if len(set.Spans) != 1 {
			t.Fatalf("got %d spans", len(set.Spans))
		}
		out := set.Spans[0]
		// ID is reassigned and negative parents clamp; everything else must
		// survive (the name modulo UTF-8 canonicalization).
		if out.Kind != in.Kind || out.App != in.App || out.GID != in.GID ||
			out.Arg != in.Arg || out.Start != in.Start || out.End != in.End {
			t.Fatalf("round trip changed a field:\n in %+v\nout %+v", in, out)
		}
		if string(appendSpanJSONL(nil, out)) != string(appendSpanJSONL(nil, set.Spans[0])) {
			t.Fatal("re-encode unstable")
		}
	})
}

// FuzzEventEncode does the same for instants.
func FuzzEventEncode(f *testing.F) {
	f.Add(uint8(9), "wake", 1, 0, int64(0), int64(250))
	f.Add(uint8(0), "", -1, -1, int64(-9), int64(0))
	f.Fuzz(func(t *testing.T, kind uint8, name string, app, gid int, arg, at int64) {
		in := Event{
			Kind: Kind(kind) % kindCount, Name: name,
			App: app, GID: gid, Arg: arg, At: sim.Time(at),
		}
		line := appendEventJSONL(nil, in)
		if !json.Valid(line) {
			t.Fatalf("event line is not valid JSON: %s", line)
		}
		set, err := ParseJSONL(line)
		if err != nil {
			t.Fatalf("event line does not parse: %v\n%s", err, line)
		}
		if len(set.Events) != 1 {
			t.Fatalf("got %d events", len(set.Events))
		}
		out := set.Events[0]
		if out.Kind != in.Kind || out.App != in.App || out.GID != in.GID ||
			out.Arg != in.Arg || out.At != in.At {
			t.Fatalf("round trip changed a field:\n in %+v\nout %+v", in, out)
		}
	})
}
