package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The machine's speed, measured beside the database.
//
// The box the acceptance runs share has neighbours. For minutes at a time
// they take cache and memory bandwidth and everything the database does
// runs up to 1.5 times slower. Ten runs of unchanged code then spread
// over a quarter to a half of their median as the clock reads them, which
// is more than the widest regression bound the acceptance allows (README,
// "The reference process", has the numbers). So while anything is timed,
// a small fixed piece of reference work runs every 20 ms, and the timings
// of an interval — a set-up, a window — are reported divided by the
// work's median duration in that interval over its duration on a quiet
// box: milliseconds as a quiet box would have measured them. The factor
// is printed beside them (bench.speed_factor and its siblings), so the
// clock reading is the reported value times the factor.
//
// The reference work must move with the machine and with nothing else,
// or a change to the engine could move the factor and hide its own cost.
// It therefore runs in a process of its own — the benchmark's own binary,
// started again with referenceEnv set — on its own timer: it shares no
// heap and no garbage collector with the engine, is never scheduled by a
// client, and does not know what the engine is doing. What it shares is
// the hardware, which is the point. On a quiet box its duration is the
// same within a few percent beside all four workloads and their set-ups;
// an earlier in-process version differed by 13% between workloads and by
// half during set-up, because the engine's allocation rate and idle cores
// leaked into it.

// referenceEnv marks a child process that only runs the reference work.
const referenceEnv = "EXTDB_BENCH_REFERENCE"

// referenceNominal is what the reference work takes on a quiet box of
// the class the benchmark was written on. It only fixes the scale of the
// factor; comparisons between runs on one box do not depend on it.
const referenceNominal = 340 * time.Microsecond

// referenceEvery is the child's period: 2% of one core.
const referenceEvery = 20 * time.Millisecond

// referenceWork is made of what the engine is made of — map inserts,
// string formatting, allocation, a sort — so that it slows down when the
// engine does. A register-only loop barely notices the neighbours.
//
//go:noinline
func referenceWork() time.Duration {
	start := time.Now()
	counts := map[string]int{}
	var keys []string
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("w%05d", (i*7919)%1500)
		counts[k]++
		if i%3 == 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	runtime.KeepAlive(counts)
	return time.Since(start)
}

// referenceMain is the child process: it runs the reference work on its
// timer and prints when each run ended and how long it took, until its
// standard input closes — which it does when the parent stops it, or
// dies.
func referenceMain(in io.Reader, out io.Writer) int {
	go func() {
		_, _ = io.Copy(io.Discard, in) // any end of input is the signal to go
		os.Exit(0)
	}()
	tick := time.NewTicker(referenceEvery)
	defer tick.Stop()
	for range tick.C {
		d := referenceWork()
		if _, err := fmt.Fprintf(out, "%d %d\n", time.Now().UnixNano(), d.Nanoseconds()); err != nil {
			return 1
		}
	}
	return 0
}

// reference is the parent's handle on the child process.
type reference struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	done chan struct{} // closed when the child's output has been read to its end

	mu      sync.Mutex
	samples []referenceSample
}

type referenceSample struct {
	at  int64 // Unix nanoseconds
	dur float64
}

// startReference starts the child and collects what it prints.
func startReference() (*reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	// One thread: the child's collector must not take the second core.
	cmd.Env = append(os.Environ(), referenceEnv+"=1", "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start the reference process: %w", err)
	}
	r := &reference{cmd: cmd, in: in, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			var s referenceSample
			if _, err := fmt.Sscanf(sc.Text(), "%d %f", &s.at, &s.dur); err == nil {
				r.mu.Lock()
				r.samples = append(r.samples, s)
				r.mu.Unlock()
			}
		}
	}()
	return r, nil
}

// factor is the machine's speed factor over the interval: the median
// reference duration in it over the nominal one. 1 is the quiet box, 1.4
// means everything took two fifths longer. n is the number of samples
// behind it; with none the factor is 1.
func (r *reference) factor(from time.Time, length time.Duration) (f float64, n int) {
	lo, hi := from.UnixNano(), from.Add(length).UnixNano()
	var durs []float64
	r.mu.Lock()
	for _, s := range r.samples {
		if s.at >= lo && s.at <= hi {
			durs = append(durs, s.dur)
		}
	}
	r.mu.Unlock()
	if len(durs) == 0 {
		return 1, 0
	}
	return median(durs) / float64(referenceNominal), len(durs)
}

// stop ends the child and waits until it has gone.
func (r *reference) stop() error {
	_ = r.in.Close() // the child leaves when its input ends; Wait reports how
	<-r.done
	if err := r.cmd.Wait(); err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	return nil
}
