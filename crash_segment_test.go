package extdb_test

// Segmented-WAL slice of the crash matrix: the same scripted and
// concurrent workloads run over a segmented sink with a payload capacity
// smaller than one page record, so every log append spans segment
// boundaries, commits activate fresh segment headers mid-workload, and
// the checkpoint step retires and recycles a whole chain. Power-failing
// at every fault-eligible operation therefore lands crashes at segment
// boundaries, during header activation, and at recycle time — the fault
// points the flat single-file matrix cannot produce.

import (
	"errors"
	"fmt"
	"testing"

	extdb "repro"
	"repro/internal/storage"
	"repro/internal/storage/fault"
)

// crashSegBytes is far below one logged page image (~8.2 KiB), forcing
// every page record to straddle several segments.
const crashSegBytes = 1024

// TestCrashSegmentedBaseline is the control: the workload over segmented
// media with no fault must verify, and must actually have cycled
// segments (a chain longer than one segment and a recycle pool).
func TestCrashSegmentedBaseline(t *testing.T) {
	media, m, bounds := runPassive(t, crashSegBytes)
	if total := bounds[len(bounds)-1]; total < 30 {
		t.Fatalf("suspiciously few fault-eligible ops: %d", total)
	}
	seg := media.sink.(*storage.SegmentedSink)
	live, free := seg.Segments()
	if live+free < 2 {
		t.Fatalf("segmented workload never spanned a segment: live=%d free=%d", live, free)
	}
	if free == 0 {
		t.Fatalf("workload checkpoints never recycled a segment: live=%d free=%d", live, free)
	}
	verifyDurable(t, media, m, "segmented-baseline")
}

// TestCrashSegmentedMatrixEveryPoint power-fails the scripted workload
// over segmented media at every fault-eligible operation.
func TestCrashSegmentedMatrixEveryPoint(t *testing.T) {
	_, _, bounds := runPassive(t, crashSegBytes)
	total := bounds[len(bounds)-1]
	for point := 1; point <= total; point++ {
		runCrashPoint(t, crashSegBytes, point, fault.Crash, fmt.Sprintf("seg-crash@%d", point))
	}
}

// TestCrashSegmentedMatrixTornWrites repeats the sweep with torn power
// loss: half the pending log bytes reach the segmented chain — tearing
// inside a segment, or exactly at a boundary with the spill segment
// lost. Recovery must keep the intact record prefix and nothing else.
func TestCrashSegmentedMatrixTornWrites(t *testing.T) {
	_, _, bounds := runPassive(t, crashSegBytes)
	total := bounds[len(bounds)-1]
	for point := 1; point <= total; point++ {
		runCrashPoint(t, crashSegBytes, point, fault.CrashTorn, fmt.Sprintf("seg-torn@%d", point))
	}
}

// TestCrashSegmentedRecyclePoints aims power loss at every operation of
// the checkpoint step specifically — the flush, the page-file sync, and
// the log reset that retires the old chain and durably activates the
// next epoch's head segment. A crash between those sub-steps must leave
// either the old chain or the fresh empty one, never a replayable
// prefix of a superseded epoch.
func TestCrashSegmentedRecyclePoints(t *testing.T) {
	_, _, bounds := runPassive(t, crashSegBytes)
	ckpt := -1
	for i, st := range crashSteps() {
		if st.name == "checkpoint" {
			ckpt = i
		}
	}
	if ckpt <= 0 {
		t.Fatal("no checkpoint step in workload")
	}
	for point := bounds[ckpt-1] + 1; point <= bounds[ckpt]; point++ {
		for _, action := range []fault.Action{fault.Crash, fault.CrashTorn} {
			label := fmt.Sprintf("seg-recycle@%d/%v", point, action)
			media := newCrashMedia(crashSegBytes)
			inj := fault.NewInjector().Set(point, action)
			m, _, failed, err := runWorkload(t, media, inj)
			if failed >= 0 && !errors.Is(err, fault.ErrCrashed) && !errors.Is(err, extdb.ErrWALBroken) {
				t.Fatalf("%s: step %d failed with unexpected error: %v", label, failed, err)
			}
			if failed > ckpt {
				t.Fatalf("%s: crash landed in step %d, past the checkpoint step %d", label, failed, ckpt)
			}
			verifyDurable(t, media, m, label)
		}
	}
}

// TestCrashConcurrentSegmentedMatrix runs the concurrent-committer sweep
// over segmented media: group batches span segments, and a torn shared
// fsync can strand half a group across a segment boundary.
func TestCrashConcurrentSegmentedMatrix(t *testing.T) {
	media := newCrashMedia(crashSegBytes)
	_, total := runConcurrentWorkload(t, media, fault.NewInjector())
	for point := 1; point <= total; point++ {
		runConcurrentCrashPoint(t, crashSegBytes, point, fault.Crash, fmt.Sprintf("seg-concurrent-crash@%d", point))
		runConcurrentCrashPoint(t, crashSegBytes, point, fault.CrashTorn, fmt.Sprintf("seg-concurrent-torn@%d", point))
	}
}

// crashTinySegBytes is below the size of any record, delta records
// included (a 17-byte header, the page id and at least one range), so
// with it every delta record straddles at least one segment boundary —
// the case crashSegBytes only produces for page images.
const crashTinySegBytes = 24

// TestCrashSegmentedDeltaStraddles repeats the power-fail sweep, clean
// and torn, over segments so small that the byte-range delta records
// span them too. The control run first proves the workload logs deltas
// at all: otherwise the sweep would only re-test full images.
func TestCrashSegmentedDeltaStraddles(t *testing.T) {
	media := newCrashMedia(crashTinySegBytes)
	db, err := extdb.Open(extdb.Options{Backend: media.backend, WALSink: media.sink, CacheSizePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	for _, st := range crashSteps() {
		if err := st.run(db, s); err != nil {
			t.Fatalf("control run, step %s: %v", st.name, err)
		}
	}
	st := db.Metrics().Pager
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if deltas := st.WALPages - st.WALFullPages; deltas < 10 || st.WALFullPages == 0 || st.WALDeltaBytes == 0 {
		t.Fatalf("workload logged %d page records, %d full, %d delta bytes: not a delta workload", st.WALPages, st.WALFullPages, st.WALDeltaBytes)
	}

	_, _, bounds := runPassive(t, crashTinySegBytes)
	total := bounds[len(bounds)-1]
	for point := 1; point <= total; point++ {
		runCrashPoint(t, crashTinySegBytes, point, fault.Crash, fmt.Sprintf("tinyseg-crash@%d", point))
		runCrashPoint(t, crashTinySegBytes, point, fault.CrashTorn, fmt.Sprintf("tinyseg-torn@%d", point))
	}
}

// TestCrashSegmentedRecycleBetweenImageAndDelta puts a recycle point
// between a page's full image and a later delta: the Docs heap page is
// imaged before the workload's checkpoint step, the checkpoint retires
// that log, and the steps after it touch the page twice more — which
// must log a fresh full image and then a delta against it, not a delta
// against the image the recycled chain held. The closing checkpoint's
// page-file sync is then torn; recovery has only the post-recycle log to
// repair the page file from.
func TestCrashSegmentedRecycleBetweenImageAndDelta(t *testing.T) {
	_, _, bounds := runPassive(t, crashSegBytes)
	steps := crashSteps()
	// Close's checkpoint ends with: page-file sync, log reset. (Close adds
	// no fault-eligible op after its checkpoint.)
	point := bounds[len(bounds)-1] - 1

	media := newCrashMedia(crashSegBytes)
	inj := fault.NewInjector().Set(point, fault.CrashTorn)
	m, _, failed, err := runWorkload(t, media, inj)
	if failed != len(steps) || !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("crash landed in step %d with %v, want power loss in Close (step %d)", failed, err, len(steps))
	}
	info := verifyDurable(t, media, m, "recycle-between-image-and-delta")
	if info.PagesRepaired == 0 || info.DeltasApplied == 0 {
		t.Fatalf("recovery after the torn closing checkpoint: %+v, want repaired pages rebuilt from images and deltas", info)
	}
}
