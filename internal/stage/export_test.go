package stage

import "tmi3d/internal/flow"

// SetBeforeExecute installs fn to run at the top of every stage body, so a
// test can fail a body on demand; nil removes it. Call it only while no run
// is in flight.
func (e *Engine) SetBeforeExecute(fn func(name string)) {
	if fn == nil {
		e.execHook = nil
		return
	}
	e.execHook = func(n *flow.Node, exec func() (any, error)) (any, error) {
		fn(n.Name)
		return exec()
	}
}

// SetExecHook installs h to run every stage body through its exec, so a test
// can change a body's value; nil removes it. Call it only while no run is in
// flight.
func (e *Engine) SetExecHook(h flow.Hook) { e.execHook = h }
