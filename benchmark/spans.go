package main

import (
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/parallel"
)

// hostSpan is one host-time interval the harness recorded around a call it
// made into a layer. Times are nanoseconds since the log was created.
type hostSpan struct {
	Name    string
	Parent  int // index of the enclosing span, -1 for a root
	StartNS int64
	EndNS   int64
}

// spanLog records the harness's own host-time spans. They stay in memory and
// are written once, at exit, as Chrome trace-event JSON. A nil *spanLog
// records nothing, which is how the timed passes run.
type spanLog struct {
	sw    parallel.Stopwatch
	spans []hostSpan
	open  []int // stack of open span indices
}

func newSpanLog() *spanLog { return &spanLog{sw: parallel.StartStopwatch()} }

// begin opens a span under the innermost open one and returns its closer.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	idx := len(l.spans)
	l.spans = append(l.spans, hostSpan{Name: name, Parent: parent, StartNS: l.sw.Nanoseconds()})
	l.open = append(l.open, idx)
	return func() {
		l.spans[idx].EndNS = l.sw.Nanoseconds()
		l.open = l.open[:len(l.open)-1]
	}
}

// seconds sums the durations of every span with the given name.
func (l *spanLog) seconds(name string) float64 {
	if l == nil {
		return 0
	}
	var ns int64
	for _, s := range l.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores the spans as Chrome trace JSON at path, creating its directory.
func (l *spanLog) write(path string) error {
	events := make([]chromeEvent, len(l.spans))
	for i, s := range l.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]int{"id": i, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
