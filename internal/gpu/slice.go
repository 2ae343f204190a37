package gpu

import "fmt"

// MIG-style device partitioning. A partitionable device (Spec.SliceProfiles
// non-empty) can be carved into isolated slices: each slice owns a fixed
// compute fraction (expressed in sevenths, after NVIDIA's GPU-instance
// granularity), a dedicated share of memory bandwidth, and a dedicated
// memory capacity. A slice is served by its own Device (see Spec.Slice),
// so slices get private resident-context multiplexing and zero cross-slice
// interference by construction — the 2020s hardware answer to the paper's
// software context-packing story.

// SliceFractions is the compute-fraction denominator: profiles are sized in
// sevenths of the parent device, mirroring MIG's seven GPU slices.
const SliceFractions = 7

// SliceProfile describes one allowed slice shape on a partitionable device.
type SliceProfile struct {
	// Name is the profile's short code ("1g", "2g", ... "7g").
	Name string

	// Frac is the compute fraction in sevenths (1..7). The slice receives
	// Frac/7 of the parent's compute throughput and memory bandwidth.
	Frac int

	// MemBytes is the slice's dedicated device-memory capacity. MIG memory
	// shares are deliberately NOT proportional to compute (a 3g instance
	// owns half the memory of the device); the disproportion is what makes
	// placement fragment.
	MemBytes int64
}

// MIGProfiles returns the standard MIG-style profile table for a device with
// the given memory capacity, following the A100 1g/2g/3g/4g/7g shapes:
// memory shares of 1/8, 1/4, 1/2, 1/2 and the whole device.
func MIGProfiles(memBytes int64) []SliceProfile {
	return []SliceProfile{
		{Name: "1g", Frac: 1, MemBytes: memBytes / 8},
		{Name: "2g", Frac: 2, MemBytes: memBytes / 4},
		{Name: "3g", Frac: 3, MemBytes: memBytes / 2},
		{Name: "4g", Frac: 4, MemBytes: memBytes / 2},
		{Name: "7g", Frac: 7, MemBytes: memBytes},
	}
}

// WithMIG returns a copy of the spec carrying the standard MIG profile table
// sized to the spec's memory — the one-liner that turns a testbed card into
// a partitionable device.
func (s Spec) WithMIG() Spec {
	s.SliceProfiles = MIGProfiles(s.normalized().MemBytes)
	return s
}

// Partitionable reports whether the spec allows slicing.
func (s Spec) Partitionable() bool { return len(s.SliceProfiles) > 0 }

// ProfileByName resolves a profile name against the spec's table.
func (s Spec) ProfileByName(name string) (SliceProfile, bool) {
	for _, p := range s.SliceProfiles {
		if p.Name == name {
			return p, true
		}
	}
	return SliceProfile{}, false
}

// Slice derives the isolated slice device spec for a profile: the parent's
// rates scaled by the compute fraction, the profile's dedicated memory, and
// no further partitioning (slices are not re-sliceable).
func (s Spec) Slice(p SliceProfile) Spec {
	out := s.normalized()
	f := float64(p.Frac) / SliceFractions
	out.Name = s.Name + "/" + p.Name
	out.ComputeRate *= f
	out.MemBandwidth *= f
	out.H2DBandwidth *= f
	out.D2HBandwidth *= f
	out.MemBytes = p.MemBytes
	out.Weight = out.Weight * f
	if mck := out.MaxConcurrentKernels * p.Frac / SliceFractions; mck >= 1 {
		out.MaxConcurrentKernels = mck
	} else {
		out.MaxConcurrentKernels = 1
	}
	out.SliceProfiles = nil
	return out
}

// CheckSlices validates the profile table against the device it carves:
// every profile takes 1..7 sevenths and a positive share of memory no
// larger than the (normalized) device's.
func (s Spec) CheckSlices() error {
	mem := s.normalized().MemBytes
	for _, p := range s.SliceProfiles {
		if p.Frac < 1 || p.Frac > SliceFractions || p.MemBytes <= 0 || p.MemBytes > mem {
			return fmt.Errorf("gpu: %s: invalid slice profile %+v", s.Name, p)
		}
	}
	return nil
}
