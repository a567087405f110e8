package stage

// SetBeforeExecute installs fn to run at the top of every stage body, so a
// test can fail a body on demand; nil removes it. Call it only while no run
// is in flight.
func (e *Engine) SetBeforeExecute(fn func(name string)) { e.beforeExecute = fn }
