// Fixture for unused-suppression detection. One directive earns its keep
// (it hides a real pinbalance finding), one names a running analyzer but
// suppresses nothing, one names an analyzer outside the run set (not
// judged: a partial run can't know whether it would have matched), and
// one names an analyzer the suite does not have (always reported).
package supfix

type page struct{ Data []byte }

type pool struct{}

func (p *pool) Fetch(id int) (*page, error) { return nil, nil }
func (p *pool) Unpin(pg *page, dirty bool)  {}

// used: the pin leaks on the return below, a genuine pinbalance finding.
func leaky(p *pool) error {
	pg, err := p.Fetch(1)
	if err != nil {
		return err
	}
	_ = pg.Data
	//vetx:ignore pinbalance -- fixture: exercising a used suppression
	return nil
}

// unused: balanced code, nothing to suppress.
//
//vetx:ignore pinbalance -- fixture: UNUSED directive with no matching finding
func balanced(p *pool) error {
	pg, err := p.Fetch(1)
	if err != nil {
		return err
	}
	p.Unpin(pg, false)
	return nil
}

// not judged: erraudit is not part of this run.
//
//vetx:ignore erraudit -- fixture: names an analyzer outside the run set
func other() {}

// unknown: no analyzer has this name, whatever the run set.
//
//vetx:ignore nosuchanalyzer -- fixture: UNKNOWN analyzer name
func unknown() {}
