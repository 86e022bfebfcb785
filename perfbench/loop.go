package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/value"
)

// op is one statement a client sends.
type op struct {
	class  string
	write  bool
	query  string
	params map[string]any
	rows   int // driving-table rows the statement ingests
	// check validates the statement's output; nil means no check. It
	// runs only for statements that succeeded.
	check func(rows [][]value.Value, c counts) error
}

// opGen yields one client's next statement. It is called only after the
// client's previous statement finished, and keeps whatever state (own
// posts, batch number) that order needs. boundary reports whether the
// statements yielded so far form whole rounds of the workload's mix; a
// timed window only ends there, so every window holds the exact mix.
type opGen interface {
	next() *op
	boundary() bool
}

// deck deals the numbers 0..n-1 in a fresh random order every n draws,
// so every n consecutive statements hold the workload's mix exactly and
// run-to-run differences do not come from the mix drifting.
type deck struct {
	cards []int
	next  int
}

func newDeck(n int) deck {
	d := deck{cards: make([]int, n), next: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

// dealt reports whether the current round is fully dealt.
func (d *deck) dealt() bool { return d.next == len(d.cards) }

func (d *deck) draw(rng *rand.Rand) int {
	if d.next == len(d.cards) {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// errMismatch marks a statement whose output is wrong: its check
// rejected it, or the traced oltp-wire twin disagreed with the server.
var errMismatch = errors.New("wrong output")

// sample is one timed statement of the measured window.
type sample struct {
	class string
	write bool
	ns    int64
}

// doFunc runs one statement and reports its rows, counters and the
// latency that counts end to end.
type doFunc func(o *op) ([][]value.Value, counts, int64, error)

// timedExec is the untraced path: the latency is the whole call.
func timedExec(ex execer) doFunc {
	return func(o *op) ([][]value.Value, counts, int64, error) {
		t := time.Now()
		rows, c, err := ex.exec(o.query, o.params)
		return rows, c, time.Since(t).Nanoseconds(), err
	}
}

// tally counts what a loop attempted, what failed and why.
type tally struct {
	attempted, failed, mismatches int
	rows                          int64
	firstErr                      error
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches += o.mismatches
	t.rows += o.rows
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// loopResult is one closed-loop window.
type loopResult struct {
	tally
	samples []sample
	elapsed time.Duration
}

// closedLoop runs one goroutine per client; each sends its next
// statement only after the previous one returned. A client stops at its
// next round boundary once d has passed and at least minOps statements
// were issued in total; closedLoop returns after every client goroutine
// has ended.
func closedLoop(gens []opGen, dos []doFunc, d time.Duration, minOps int) loopResult {
	var (
		mu  sync.Mutex
		out loopResult
		wg  sync.WaitGroup
	)
	var (
		cmu   sync.Mutex
		count int
	)
	more := func(start time.Time, gen opGen) bool {
		cmu.Lock()
		defer cmu.Unlock()
		if gen.boundary() && time.Since(start) >= d && count >= minOps {
			return false
		}
		count++
		return true
	}
	start := time.Now()
	for i := range gens {
		wg.Add(1)
		go func(gen opGen, do doFunc) {
			defer wg.Done()
			var t tally
			var samples []sample
			for more(start, gen) {
				o := gen.next()
				rows, c, ns, err := do(o)
				t.attempted++
				if err == nil && o.check != nil {
					if cerr := o.check(rows, c); cerr != nil {
						err = fmt.Errorf("%w: %w", errMismatch, cerr)
					}
				}
				if errors.Is(err, errMismatch) {
					t.mismatches++
				}
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = fmt.Errorf("%s: %w", o.class, err)
					}
					continue
				}
				t.rows += int64(o.rows)
				samples = append(samples, sample{o.class, o.write, ns})
			}
			mu.Lock()
			out.add(t)
			out.samples = append(out.samples, samples...)
			mu.Unlock()
		}(gens[i], dos[i])
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// latencies returns the sorted latencies in ms of the samples keep picks.
func latencies(ss []sample, keep func(sample) bool) []float64 {
	var xs []float64
	for _, s := range ss {
		if keep(s) {
			xs = append(xs, float64(s.ns)/1e6)
		}
	}
	sort.Float64s(xs)
	return xs
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
