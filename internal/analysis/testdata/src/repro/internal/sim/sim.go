// Package sim is a miniature stand-in for the real discrete-event kernel,
// just enough for fixtures to import it (which is what makes a fixture
// package "sim-driven" to the analyzers). It also doubles as a rawgo
// fixture: the kernel layer is checked like any sim-driven package.
package sim

// Time is virtual time in microseconds.
type Time int64

// Proc is a simulated process.
type Proc struct{}

// Kernel is the discrete-event kernel.
type Kernel struct{}

// Go spawns a simulated process.
func (k *Kernel) Go(name string, fn func(p *Proc)) {
	done := make(chan struct{})
	go func() { // want `raw goroutine in a sim-driven package`
		defer close(done)
		fn(&Proc{})
	}()
	<-done
}
