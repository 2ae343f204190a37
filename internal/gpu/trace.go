package gpu

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// UtilSegment is one interval of constant device state.
type UtilSegment struct {
	From, To    sim.Time
	ComputeUtil float64
	BWUtil      float64
	CopiesBusy  int
	ResidentCtx int
}

// UtilTrace records utilization segments, from which Fig 1/2-style
// utilization timelines are reconstructed. Zero-length segments are skipped
// and adjacent identical segments are merged.
type UtilTrace struct {
	Segments []UtilSegment
}

// Segment records the device state over [from, to).
func (u *UtilTrace) Segment(from, to sim.Time, cu, bu float64, copies, ctx int) {
	if to <= from {
		return
	}
	if n := len(u.Segments); n > 0 {
		last := &u.Segments[n-1]
		if last.To == from && last.ComputeUtil == cu && last.BWUtil == bu &&
			last.CopiesBusy == copies && last.ResidentCtx == ctx {
			last.To = to
			return
		}
	}
	u.Segments = append(u.Segments, UtilSegment{from, to, cu, bu, copies, ctx})
}

// Busy reports whether a segment has any engine active (the coarse "GPU
// busy" measure a utilization counter would show).
func (s UtilSegment) Busy() bool {
	return s.ComputeUtil > 0.005 || s.CopiesBusy > 0
}

// MeanBusy returns the fraction of [0, horizon] with any engine active.
func (u *UtilTrace) MeanBusy(horizon sim.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	var busy float64
	for _, s := range u.Segments {
		to := s.To
		if to > horizon {
			to = horizon
		}
		if to <= s.From {
			continue
		}
		if s.Busy() {
			busy += float64(to - s.From)
		}
	}
	return busy / float64(horizon)
}

// BusyBuckets integrates engine-busy time into n equal buckets over
// [0, horizon].
func (u *UtilTrace) BusyBuckets(horizon sim.Time, n int) []float64 {
	out := make([]float64, n)
	if horizon <= 0 || n == 0 {
		return out
	}
	w := float64(horizon) / float64(n)
	for _, s := range u.Segments {
		if !s.Busy() {
			continue
		}
		from, to := float64(s.From), float64(s.To)
		if from >= float64(horizon) {
			break
		}
		if to > float64(horizon) {
			to = float64(horizon)
		}
		for b := int(from / w); b < n && float64(b)*w < to; b++ {
			lo := float64(float64(b) * w)
			hi := lo + w
			if lo < from {
				lo = from
			}
			if hi > to {
				hi = to
			}
			if hi > lo {
				out[b] += (hi - lo) / w
			}
		}
	}
	return out
}

// RenderBusy draws an ASCII strip of engine-busy fraction per bucket.
func (u *UtilTrace) RenderBusy(horizon sim.Time, width int) string {
	var b strings.Builder
	for _, v := range u.BusyBuckets(horizon, width) {
		switch {
		case v < 0.05:
			b.WriteByte(' ')
		case v < 0.30:
			b.WriteRune('░')
		case v < 0.60:
			b.WriteRune('▒')
		case v < 0.90:
			b.WriteRune('▓')
		default:
			b.WriteRune('█')
		}
	}
	return b.String()
}

// BusyGlitchCount counts idle gaps (no engine active) bounded by busy
// periods.
func (u *UtilTrace) BusyGlitchCount() int {
	n := 0
	busyBefore := false
	inGap := false
	for _, s := range u.Segments {
		busy := s.Busy()
		switch {
		case busy && inGap:
			n++
			inGap = false
			busyBefore = true
		case busy:
			busyBefore = true
		case !busy && busyBefore:
			inGap = true
		}
	}
	return n
}

// MeanUtil returns time-weighted mean compute and bandwidth utilization over
// [0, horizon].
func (u *UtilTrace) MeanUtil(horizon sim.Time) (computeUtil, bwUtil float64) {
	if horizon <= 0 {
		return 0, 0
	}
	var c, b float64
	for _, s := range u.Segments {
		to := s.To
		if to > horizon {
			to = horizon
		}
		if to <= s.From {
			continue
		}
		dt := float64(to - s.From)
		c += float64(dt * s.ComputeUtil)
		b += float64(dt * s.BWUtil)
	}
	return c / float64(horizon), b / float64(horizon)
}

// WriteJSON emits the trace's segments as a JSON array of
// {from_us, to_us, compute, bw, copies, ctx} objects.
func (u *UtilTrace) WriteJSON(w io.Writer) error {
	type seg struct {
		FromUS  int64   `json:"from_us"`
		ToUS    int64   `json:"to_us"`
		Compute float64 `json:"compute"`
		BW      float64 `json:"bw"`
		Copies  int     `json:"copies"`
		Ctx     int     `json:"ctx"`
	}
	out := make([]seg, len(u.Segments))
	for i, s := range u.Segments {
		out[i] = seg{
			FromUS: int64(s.From), ToUS: int64(s.To),
			Compute: s.ComputeUtil, BW: s.BWUtil,
			Copies: s.CopiesBusy, Ctx: s.ResidentCtx,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// String summarizes the trace.
func (u *UtilTrace) String() string {
	if len(u.Segments) == 0 {
		return "UtilTrace(empty)"
	}
	last := u.Segments[len(u.Segments)-1]
	return fmt.Sprintf("UtilTrace(%d segments, %v..%v)", len(u.Segments), u.Segments[0].From, last.To)
}
