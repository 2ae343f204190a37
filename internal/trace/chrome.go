package trace

import (
	"io"
	"sort"
)

// WriteChrome writes the set in the Chrome trace-event JSON array format
// (load it at chrome://tracing or ui.perfetto.dev). Virtual time maps 1:1
// onto the viewer's microsecond timestamps; devices become processes
// (pid = GID+1, pid 0 is cluster-level/unbound work) and applications
// become threads (tid = app id). The byte stream is deterministic: spans in
// id order, then events, then decisions, with metadata rows for the sorted
// pid set first.
func (s *Set) WriteChrome(w io.Writer) error {
	_, err := w.Write(s.AppendChrome(nil))
	return err
}

// chromePid maps a span/event GID onto a viewer process id.
func chromePid(gid int) int64 {
	if gid < 0 {
		return 0
	}
	return int64(gid) + 1
}

// AppendChrome appends the Chrome trace-event JSON array to b.
func (s *Set) AppendChrome(b []byte) []byte {
	b = append(b, '[')
	first := true
	emit := func() {
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '\n')
	}

	// Metadata: name every process the trace touches. Collect the pid set,
	// then sort, so map order never reaches the output.
	pids := make(map[int64]bool)
	for _, sp := range s.Spans {
		pids[chromePid(sp.GID)] = true
	}
	for _, e := range s.Events {
		pids[chromePid(e.GID)] = true
	}
	sorted := make([]int64, 0, len(pids))
	for pid := range pids {
		sorted = append(sorted, pid)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, pid := range sorted {
		emit()
		b = append(b, `{"ph":"M","name":"process_name","pid":`...)
		b = appendInt(b, pid)
		b = append(b, `,"tid":0,"args":{"name":`...)
		if pid == 0 {
			b = appendJSONString(b, "cluster")
		} else {
			b = appendJSONString(b, "gpu")
			b = append(b, `,"gid":`...)
			b = appendInt(b, pid-1)
		}
		b = append(b, `}}`...)
	}

	// Complete ("X") events for spans. Open spans render with dur 0.
	for _, sp := range s.Spans {
		emit()
		b = append(b, `{"ph":"X","name":`...)
		b = appendJSONString(b, sp.Name)
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, sp.Kind.String())
		b = append(b, `,"ts":`...)
		b = appendInt(b, int64(sp.Start))
		b = append(b, `,"dur":`...)
		b = appendInt(b, int64(sp.Duration()))
		b = append(b, `,"pid":`...)
		b = appendInt(b, chromePid(sp.GID))
		b = append(b, `,"tid":`...)
		b = appendInt(b, int64(sp.App))
		b = append(b, `,"args":{"id":`...)
		b = appendInt(b, int64(sp.ID))
		b = append(b, `,"parent":`...)
		b = appendInt(b, int64(sp.Parent))
		b = append(b, `,"arg":`...)
		b = appendInt(b, sp.Arg)
		b = append(b, `}}`...)
	}

	// Instant ("i") events.
	for _, e := range s.Events {
		emit()
		b = append(b, `{"ph":"i","name":`...)
		if e.Name != "" {
			b = appendJSONString(b, e.Name)
		} else {
			b = appendJSONString(b, e.Kind.String())
		}
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, e.Kind.String())
		b = append(b, `,"ts":`...)
		b = appendInt(b, int64(e.At))
		b = append(b, `,"pid":`...)
		b = appendInt(b, chromePid(e.GID))
		b = append(b, `,"tid":`...)
		b = appendInt(b, int64(e.App))
		b = append(b, `,"s":"t","args":{"arg":`...)
		b = appendInt(b, e.Arg)
		b = append(b, `}}`...)
	}

	// Decision-audit records as instants on the cluster process, with the
	// full row snapshot in args.
	for _, d := range s.Decisions {
		emit()
		b = append(b, `{"ph":"i","name":"decision","cat":"decision","ts":`...)
		b = appendInt(b, int64(d.At))
		b = append(b, `,"pid":0,"tid":`...)
		b = appendInt(b, int64(d.App))
		b = append(b, `,"s":"g","args":{"class":`...)
		b = appendJSONString(b, d.Class)
		b = append(b, `,"policy":`...)
		b = appendJSONString(b, d.Policy)
		b = append(b, `,"picked":`...)
		b = appendInt(b, int64(d.Picked))
		b = append(b, `,"sft_samples":`...)
		b = appendInt(b, int64(d.SFTSamples))
		b = append(b, `,"rows":[`...)
		for i, row := range d.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"gid":`...)
			b = appendInt(b, int64(row.GID))
			b = append(b, `,"health":`...)
			b = appendJSONString(b, row.Health)
			b = append(b, `,"load":`...)
			b = appendInt(b, int64(row.Load))
			b = append(b, `,"weight":`...)
			b = appendJSONFloat(b, row.Weight)
			b = append(b, '}')
		}
		b = append(b, `]}}`...)
	}
	return append(b, "\n]\n"...)
}
