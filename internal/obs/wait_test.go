package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWaitClassStrings(t *testing.T) {
	seen := map[string]bool{}
	for c := WaitClass(0); c < NumWaitClasses; c++ {
		s := c.String()
		if strings.HasPrefix(s, "WaitClass(") {
			t.Fatalf("class %d has no String case", int(c))
		}
		if seen[s] {
			t.Fatalf("duplicate class name %q", s)
		}
		seen[s] = true
	}
	if s := NumWaitClasses.String(); !strings.HasPrefix(s, "WaitClass(") {
		t.Fatalf("NumWaitClasses.String() = %q, want fallback form", s)
	}
}

func TestWaitRecordAndSnapshot(t *testing.T) {
	var w WaitStats
	w.Record(WaitPagerLatch, 100)
	w.Record(WaitPagerLatch, 300)
	w.Record(WaitWALAppend, 50)
	w.Record(WaitPagerLatch, -7) // clamps to zero, still counts

	s := w.Snapshot()
	pl := s.Classes["PagerLatch"]
	if pl.Count != 3 || pl.TotalNanos != 400 || pl.MaxNanos != 300 {
		t.Fatalf("PagerLatch = %+v, want {3 400 300}", pl)
	}
	if wa := s.Classes["WALAppend"]; wa.Count != 1 || wa.TotalNanos != 50 {
		t.Fatalf("WALAppend = %+v, want {1 50 50}", wa)
	}
	if _, ok := s.Classes["TableLock"]; ok {
		t.Fatal("never-fired class present in snapshot")
	}
	if s.Durations.Count != 4 || s.Durations.Sum != 450 {
		t.Fatalf("Durations = count %d sum %d, want 4/450", s.Durations.Count, s.Durations.Sum)
	}
}

func TestWaitStartWaitMeasures(t *testing.T) {
	var w WaitStats
	aw := w.StartWait(WaitTableLock)
	time.Sleep(2 * time.Millisecond)
	n := aw.Done()
	if n < int64(time.Millisecond) {
		t.Fatalf("Done = %dns, want >= 1ms", n)
	}
	s := w.Snapshot()
	tl := s.Classes["TableLock"]
	if tl.Count != 1 || tl.TotalNanos != n || tl.MaxNanos != n {
		t.Fatalf("TableLock = %+v, want {1 %d %d}", tl, n, n)
	}
}

func TestWaitNilAndOutOfRange(t *testing.T) {
	var nilW *WaitStats
	aw := nilW.StartWait(WaitPagerLatch)
	time.Sleep(time.Millisecond)
	if n := aw.Done(); n < int64(time.Millisecond) {
		t.Fatalf("nil WaitStats: Done = %dns, want measurement anyway", n)
	}
	nilW.Record(WaitPagerLatch, 1) // must not panic

	var w WaitStats
	w.Record(WaitPagerLatch, 100)
	if s := w.Snapshot(); s.Classes["PagerLatch"].Count != 1 {
		t.Fatal("zero-value table did not record")
	}

	// Out-of-range classes are dropped, not crashed on.
	w.Record(WaitClass(-1), 5)
	w.Record(NumWaitClasses, 5)
	if s := w.Snapshot(); s.Durations.Count != 1 {
		t.Fatalf("out-of-range class recorded: %+v", w.Snapshot())
	}
}

func TestWaitSlowEventsReachFlight(t *testing.T) {
	var w WaitStats
	f := NewFlightRecorder(16)
	w.AttachFlight(f)
	w.SetSlowWaitThreshold(time.Millisecond)
	w.Record(WaitWALGroupFsync, int64(500*time.Microsecond)) // under threshold
	w.Record(WaitWALGroupFsync, int64(2*time.Millisecond))   // over
	evs := f.Events()
	if len(evs) != 1 {
		t.Fatalf("flight events = %d, want 1 (only the slow wait)", len(evs))
	}
	e := evs[0]
	if e.Kind != EvSlowWait || WaitClass(e.A) != WaitWALGroupFsync || e.B != int64(2*time.Millisecond) {
		t.Fatalf("slow-wait event = %+v", e)
	}
	if !strings.Contains(e.String(), "WALGroupFsync") {
		t.Fatalf("event line %q does not name the class", e.String())
	}
}

func TestWaitSnapshotDeltaTopString(t *testing.T) {
	var w WaitStats
	w.Record(WaitAdmissionShared, 10)
	before := w.Snapshot()
	w.Record(WaitAdmissionShared, 40)
	w.Record(WaitWALGroupFsync, 1000)
	after := w.Snapshot()

	d := after.Delta(before)
	if as := d.Classes["AdmissionShared"]; as.Count != 1 || as.TotalNanos != 40 {
		t.Fatalf("delta AdmissionShared = %+v, want {1 40 _}", as)
	}
	if gf := d.Classes["WALGroupFsync"]; gf.Count != 1 || gf.TotalNanos != 1000 {
		t.Fatalf("delta WALGroupFsync = %+v", gf)
	}
	if d.Durations.Count != 2 || d.Durations.Sum != 1040 {
		t.Fatalf("delta histogram = count %d sum %d, want 2/1040", d.Durations.Count, d.Durations.Sum)
	}

	top := after.TopWaits(1)
	if len(top) != 1 || !strings.Contains(top[0], "WALGroupFsync") {
		t.Fatalf("TopWaits(1) = %v, want WALGroupFsync first", top)
	}

	out := after.String()
	if !strings.Contains(out, "class") || !strings.Contains(out, "WALGroupFsync") ||
		!strings.Contains(out, "AdmissionShared") {
		t.Fatalf("String() missing table content:\n%s", out)
	}
	if lines := strings.Split(out, "\n"); !strings.HasPrefix(lines[1], "WALGroupFsync") {
		t.Fatalf("String() not sorted by total time:\n%s", out)
	}
	if got := (WaitSnapshot{}).String(); got != "no waits recorded" {
		t.Fatalf("empty String() = %q", got)
	}
}

func TestCounterStoreMax(t *testing.T) {
	var c Counter
	c.StoreMax(10)
	c.StoreMax(5)
	c.StoreMax(20)
	if got := c.Load(); got != 20 {
		t.Fatalf("StoreMax result = %d, want 20", got)
	}
}

// TestWaitConcurrent hammers the table from recorders, StartWait/Done
// pairs, and snapshot readers at once; meaningful mostly under -race,
// but the final totals are also checked exactly.
func TestWaitConcurrent(t *testing.T) {
	var w WaitStats
	f := NewFlightRecorder(64)
	w.AttachFlight(f)
	w.SetSlowWaitThreshold(time.Nanosecond) // every wait is "slow": exercises the flight path too

	const (
		goroutines = 8
		perG       = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ { // concurrent snapshot readers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := w.Snapshot()
				for _, c := range s.Classes {
					if c.TotalNanos < 0 || c.Count < 0 {
						panic("negative counters in snapshot")
					}
				}
				_ = s.String()
			}
		}()
	}
	var workers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			class := WaitClass(g % int(NumWaitClasses))
			for i := 0; i < perG; i++ {
				w.Record(class, int64(i))
				w.StartWait(class).Done()
			}
		}(g)
	}
	workers.Wait()
	close(stop)
	wg.Wait()

	s := w.Snapshot()
	var count int64
	for _, c := range s.Classes {
		count += c.Count
	}
	if want := int64(goroutines * perG * 2); count != want {
		t.Fatalf("total recorded waits = %d, want %d", count, want)
	}
	if s.Durations.Count != int64(goroutines*perG*2) {
		t.Fatalf("histogram count = %d, want %d", s.Durations.Count, goroutines*perG*2)
	}
	if f.Len() == 0 {
		t.Fatal("slow-wait flight events never recorded")
	}
}
