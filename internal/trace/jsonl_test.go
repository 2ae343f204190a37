package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleSet exercises every record type and every field the wire carries.
func sampleSet() *Set {
	return &Set{
		Spans: []Span{
			{ID: 1, Parent: 0, Kind: KRequest, Name: "MC", App: 1, GID: 0, Arg: 7, Start: 100, End: 900},
			{ID: 2, Parent: 1, Kind: KCall, Name: `cuda"Launch"`, App: 1, GID: 0, Arg: 3, Start: 150, End: 400},
			{ID: 3, Parent: 0, Kind: KWait, Name: "wait\tturn\n", App: 2, GID: -1, Arg: -9, Start: 200, End: -1},
		},
		Events: []Event{
			{Kind: KWake, Name: "", App: 2, GID: 1, Arg: 0, At: 250},
			{Kind: KFailover, Name: "MC", App: 1, GID: 1, Arg: 2, At: 300},
		},
		Decisions: []Decision{
			{
				At: 120, App: 1, Class: "MC", Node: 0, Tenant: 4, Policy: "GMin",
				Picked: 0, SFTSamples: 5, SFTExec: 1234,
				Rows: []DecisionRow{
					{GID: 0, Node: 0, Health: "Healthy", Load: 2, Weight: 1.5},
					{GID: 1, Node: 0, Health: "Dead", Load: 0, Weight: 0.25},
				},
			},
		},
	}
}

// TestJSONLRoundTrip pins the encoder/decoder pair as an identity on encoder
// output: Parse(Encode(set)) reproduces the set, and re-encoding is
// byte-identical.
func TestJSONLRoundTrip(t *testing.T) {
	set := sampleSet()
	enc := set.AppendJSONL(nil)
	back, err := ParseJSONL(enc)
	if err != nil {
		t.Fatalf("ParseJSONL: %v", err)
	}
	if !reflect.DeepEqual(set, back) {
		t.Errorf("round trip changed the set:\n in %+v\nout %+v", set, back)
	}
	enc2 := back.AppendJSONL(nil)
	if !bytes.Equal(enc, enc2) {
		t.Error("re-encode is not byte-identical")
	}
}

// TestJSONLLinesAreValidJSON checks every emitted line against the stock
// decoder.
func TestJSONLLinesAreValidJSON(t *testing.T) {
	enc := sampleSet().AppendJSONL(nil)
	lines := bytes.Split(bytes.TrimRight(enc, "\n"), []byte{'\n'})
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	for i, line := range lines {
		if !json.Valid(line) {
			t.Errorf("line %d is not valid JSON: %s", i+1, line)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleSet().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), sampleSet().AppendJSONL(nil)) {
		t.Error("WriteJSONL differs from AppendJSONL")
	}
}

// TestAppendJSONString pins the escaping rules, including the U+FFFD
// canonicalization of invalid UTF-8 that makes decode∘encode idempotent.
func TestAppendJSONString(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", `"plain"`},
		{`quote"back\`, `"quote\"back\\"`},
		{"tab\tnl\ncr\r", `"tab\tnl\ncr\r"`},
		{"ctl\x01", `"ctl\u0001"`},
		{"bad\xffutf8", `"bad` + "�" + `utf8"`},
		{"κόσμε", `"κόσμε"`},
	}
	for _, tc := range cases {
		got := string(appendJSONString(nil, tc.in))
		if got != tc.want {
			t.Errorf("appendJSONString(%q) = %s, want %s", tc.in, got, tc.want)
		}
		var back string
		if err := json.Unmarshal([]byte(got), &back); err != nil {
			t.Errorf("emitted string %s does not decode: %v", got, err)
		}
	}
}

// TestAppendJSONFloat pins the canonicalization of unrepresentable floats.
func TestAppendJSONFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"},
		{0.1, "0.1"},
		{math.NaN(), "0"},
		{math.Inf(1), "0"},
		{math.Inf(-1), "0"},
		{1e21, "1e+21"},
	}
	for _, tc := range cases {
		if got := string(appendJSONFloat(nil, tc.in)); got != tc.want {
			t.Errorf("appendJSONFloat(%v) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestParseJSONLErrors(t *testing.T) {
	cases := []struct{ name, in, wantErr string }{
		{"not json", "{", "line 1"},
		{"unknown type", `{"t":"bogus"}`, `unknown record type "bogus"`},
		{"unknown span kind", `{"t":"span","kind":"zap"}`, `unknown span kind "zap"`},
		{"unknown event kind", `{"t":"event","kind":"zap"}`, `unknown event kind "zap"`},
		{"second line", "{\"t\":\"event\",\"kind\":\"wake\"}\n{", "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseJSONL([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseJSONL(%q) err = %v, want containing %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

func TestParseJSONLNormalizes(t *testing.T) {
	in := strings.Join([]string{
		"", // blank lines skipped
		`{"t":"span","id":42,"parent":-3,"kind":"call","name":"n","app":1,"gid":0,"arg":0,"start":1,"end":2}`,
		"   ",
		`{"t":"span","id":42,"parent":1,"kind":"exec","name":"m","app":1,"gid":0,"arg":0,"start":1,"end":2}`,
	}, "\n")
	set, err := ParseJSONL([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Spans) != 2 {
		t.Fatalf("got %d spans", len(set.Spans))
	}
	if set.Spans[0].ID != 1 || set.Spans[1].ID != 2 {
		t.Errorf("ids not reassigned sequentially: %d, %d", set.Spans[0].ID, set.Spans[1].ID)
	}
	if set.Spans[0].Parent != 0 {
		t.Errorf("negative parent not clamped: %d", set.Spans[0].Parent)
	}
}

// TestEmptySetExports pins the degenerate case every exporter must handle.
func TestEmptySetExports(t *testing.T) {
	set := &Set{}
	if out := set.AppendJSONL(nil); len(out) != 0 {
		t.Errorf("empty set JSONL = %q", out)
	}
	chrome := set.AppendChrome(nil)
	if !json.Valid(chrome) {
		t.Errorf("empty set Chrome trace invalid: %s", chrome)
	}
	back, err := ParseJSONL(nil)
	if err != nil || len(back.Spans) != 0 {
		t.Errorf("ParseJSONL(nil) = %+v, %v", back, err)
	}
}
