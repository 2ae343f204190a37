// Fixture for lint:allow comment forms: trailing line comments, trailing
// block comments, own-line forms, and multi-line block comments must all
// suppress the line they cover — and only that line.
package allowforms

import (
	"time"

	"repro/internal/sim"
)

var virtual sim.Time

func forms() {
	_ = time.Now() //lint:allow simclock -- fixture: trailing line form
	_ = time.Now() /* lint:allow simclock -- fixture: trailing block form */
	//lint:allow simclock -- fixture: own-line line form
	_ = time.Now()
	/* lint:allow simclock -- fixture: own-line block form */
	_ = time.Now()
	/*
		lint:allow simclock -- fixture: multi-line block form
	*/
	_ = time.Now()
	_ = time.Now() // want `time\.Now reads the wall clock`
}
