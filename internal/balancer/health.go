package balancer

// Health is a DST row's failure-detector state. The zero value is Healthy,
// so statically built tables start fully available and legacy callers that
// never touch the detector see the pre-fault-tolerance behaviour.
type Health int

// Health states. A row degrades Healthy→Suspect on the first failed call,
// Suspect→Dead after FailThreshold consecutive failures (or immediately via
// MarkDead), and recovers Suspect→Healthy on the next success. Dead is
// terminal: a removed or crashed backend never rejoins the pool.
const (
	Healthy Health = iota
	Suspect
	Dead
)

// String renders the state for traces and tables.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "Healthy"
	case Suspect:
		return "Suspect"
	case Dead:
		return "Dead"
	default:
		return "Health(?)"
	}
}

// FailThreshold is how many consecutive call failures (timeouts or transport
// errors) against one device turn Suspect into Dead.
const FailThreshold = 3

// MarkFailure records one failed call against gid and returns the row's
// resulting health: Suspect on the first failures, Dead once FailThreshold
// consecutive failures accumulate. Unknown GIDs report Dead.
func (d *DST) MarkFailure(gid GID) Health {
	e := d.Entry(gid)
	if e == nil {
		return Dead
	}
	if e.Health == Dead {
		return Dead
	}
	e.ConsecFails++
	if e.ConsecFails >= FailThreshold {
		e.Health = Dead
	} else {
		e.Health = Suspect
	}
	return e.Health
}

// MarkRecovered clears the consecutive-failure counter after a successful
// call, returning a Suspect row to Healthy. Dead rows stay dead.
func (d *DST) MarkRecovered(gid GID) {
	e := d.Entry(gid)
	if e == nil || e.Health == Dead {
		return
	}
	e.ConsecFails = 0
	e.Health = Healthy
}

// MarkDead forces the row Dead: a destroyed slice's row stays in the table,
// resolvable, and policies skip it like any other dead device.
func (d *DST) MarkDead(gid GID) {
	if e := d.Entry(gid); e != nil {
		e.Health = Dead
	}
}

// Health returns the row's state (Dead for unknown GIDs).
func (d *DST) Health(gid GID) Health {
	e := d.Entry(gid)
	if e == nil {
		return Dead
	}
	return e.Health
}
