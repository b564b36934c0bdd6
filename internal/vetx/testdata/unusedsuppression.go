// Fixture for unused-suppression detection. One directive earns its keep
// (it hides a real lockbalance finding), one names a running analyzer but
// suppresses nothing, one names an analyzer outside the run set (not
// judged: a partial run can't know whether it would have matched), and
// one names an analyzer the suite does not have (always reported).
package supfix

import "sync"

type T struct {
	mu sync.Mutex
}

// used: the missing Unlock below is a genuine lockbalance finding,
// reported at the closing brace.
func (t *T) leaky() {
	t.mu.Lock()
	//vetx:ignore lockbalance -- fixture: exercising a used suppression
}

// unused: balanced code, nothing to suppress.
//
//vetx:ignore lockbalance -- fixture: UNUSED directive with no matching finding
func (t *T) balanced() {
	t.mu.Lock()
	t.mu.Unlock()
}

// not judged: erraudit is not part of this run.
//
//vetx:ignore erraudit -- fixture: names an analyzer outside the run set
func (t *T) other() {}

// unknown: no analyzer has this name, whatever the run set.
//
//vetx:ignore nosuchanalyzer -- fixture: UNKNOWN analyzer name
func (t *T) unknown() {}
