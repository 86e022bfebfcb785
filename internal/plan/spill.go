package plan

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/value"
)

// Spill tuning. minSpillRows keeps runs from degenerating to one row
// under absurdly small budgets (so peak memory is budget plus at most
// minSpillRows rows of slack); maxMergeWidth bounds simultaneously
// open run files — when exceeded, existing runs are compacted into one
// by an intermediate merge. spillParts is the hash-partition fan-out
// of the spilling Aggregate/Distinct: each deferred partition is
// processed alone, so their resident state is roughly 1/spillParts of
// the overflowed key space (single-level partitioning, documented
// limitation).
const (
	minSpillRows  = 16
	maxMergeWidth = 16
	spillParts    = 8
)

// spillRow is the unit of spilled data: a row's values plus whichever
// ordering metadata its barrier needs — a global intake sequence
// number (all barriers; ties and first-occurrence order), sort keys
// (external sort), and the group/distinct key string (hash
// partitioning).
type spillRow struct {
	seq  int64
	key  string
	keys []value.Value
	vals []value.Value
}

var spillLive atomic.Int64

// SpillFilesLive reports the number of spill temp files currently on
// disk across the process, for leak assertions in tests (barriers
// remove each file as soon as its run is consumed, and Close removes
// any remainder even on error or early-LIMIT abandonment).
func SpillFilesLive() int64 { return spillLive.Load() }

// spillDirCfg holds the configured spill directory ("" = os.TempDir()).
var spillDirCfg atomic.Value

// SetSpillDir directs subsequent spill temp files to dir for the whole
// process (the empty string restores the default, os.TempDir()).
func SetSpillDir(dir string) { spillDirCfg.Store(dir) }

// SpillDir reports the directory spill temp files are created in.
func SpillDir() string {
	if d, ok := spillDirCfg.Load().(string); ok && d != "" {
		return d
	}
	return os.TempDir()
}

// spillFilePrefix tags this process's spill files with its pid, so a
// sweep after a crash can tell dead owners' orphans from files of
// still-running engines.
func spillFilePrefix() string { return fmt.Sprintf("repro-spill-p%d-", os.Getpid()) }

// SweepSpillOrphans removes spill temp files in dir (the configured
// spill directory when dir is empty) whose owning process is no longer
// alive — the files a killed process had no chance to clean up. Files
// of live processes, of this process, and files whose owner cannot be
// determined are left alone. It returns the number of files removed.
// Engine construction calls this once per process, so restarting after
// a crash reclaims the disk the crash leaked.
func SweepSpillOrphans(dir string) (int, error) {
	if dir == "" {
		dir = SpillDir()
	}
	matches, err := filepath.Glob(filepath.Join(dir, "repro-spill-p*"))
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, path := range matches {
		rest := strings.TrimPrefix(filepath.Base(path), "repro-spill-p")
		dash := strings.IndexByte(rest, '-')
		if dash <= 0 {
			continue
		}
		pid, err := strconv.Atoi(rest[:dash])
		if err != nil || pid <= 0 || pid == os.Getpid() {
			continue
		}
		if pidAlive(pid) {
			continue
		}
		if err := os.Remove(path); err == nil {
			removed++
		}
	}
	return removed, nil
}

// pidAlive reports whether a process with the given pid exists (signal
// 0 probes existence without delivering anything; EPERM still means
// the process is there).
func pidAlive(pid int) bool {
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = proc.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}

// ---------------------------------------------------------------------
// Value codec — delegated to the shared binary codec in internal/graph
// (binval.go), which the write-ahead log uses too. Floats round-trip
// by bit pattern (NaN included), entities by id, lists/maps/paths
// recursively — every value kind is covered, so any row the executor
// produces can spill.
// ---------------------------------------------------------------------

func writeVarint(w *bufio.Writer, x int64) error   { return graph.WriteVarint(w, x) }
func writeUvarint(w *bufio.Writer, x uint64) error { return graph.WriteUvarint(w, x) }

func writeSpillString(w *bufio.Writer, s string) error { return graph.WriteBinaryString(w, s) }

func readSpillString(r *bufio.Reader) (string, error) { return graph.ReadBinaryString(r) }

func writeVal(w *bufio.Writer, v value.Value) error { return graph.WriteBinaryValue(w, v) }

func readVal(r *bufio.Reader) (value.Value, error) { return graph.ReadBinaryValue(r) }

func writeSpillRow(w *bufio.Writer, row spillRow) error {
	if err := writeVarint(w, row.seq); err != nil {
		return err
	}
	if err := writeSpillString(w, row.key); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(len(row.keys))); err != nil {
		return err
	}
	for _, v := range row.keys {
		if err := writeVal(w, v); err != nil {
			return err
		}
	}
	if err := writeUvarint(w, uint64(len(row.vals))); err != nil {
		return err
	}
	for _, v := range row.vals {
		if err := writeVal(w, v); err != nil {
			return err
		}
	}
	return nil
}

func readSpillRow(r *bufio.Reader) (spillRow, error) {
	var row spillRow
	var err error
	if row.seq, err = binary.ReadVarint(r); err != nil {
		return row, err
	}
	if row.key, err = readSpillString(r); err != nil {
		return row, err
	}
	nk, err := binary.ReadUvarint(r)
	if err != nil {
		return row, err
	}
	if nk > 0 {
		row.keys = make([]value.Value, nk)
		for i := range row.keys {
			if row.keys[i], err = readVal(r); err != nil {
				return row, err
			}
		}
	}
	nv, err := binary.ReadUvarint(r)
	if err != nil {
		return row, err
	}
	if nv > 0 {
		row.vals = make([]value.Value, nv)
		for i := range row.vals {
			if row.vals[i], err = readVal(r); err != nil {
				return row, err
			}
		}
	}
	return row, nil
}

// ---------------------------------------------------------------------
// Spill files and run merging
// ---------------------------------------------------------------------

// spillFile is a temp file holding encoded spill rows: write-once via
// add, then read back via stream. discard (or stream-close) removes
// the file from disk.
type spillFile struct {
	f *os.File
	w *bufio.Writer
	n int
}

func newSpillFile() (*spillFile, error) {
	f, err := os.CreateTemp(SpillDir(), spillFilePrefix()+"*")
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	spillLive.Add(1)
	return &spillFile{f: f, w: bufio.NewWriterSize(f, 64<<10)}, nil
}

func (s *spillFile) add(r spillRow) error {
	s.n++
	return writeSpillRow(s.w, r)
}

// stream flushes and rewinds the file for reading. On error the file
// is discarded.
func (s *spillFile) stream() (*spillStream, error) {
	if err := s.w.Flush(); err != nil {
		s.discard()
		return nil, err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		s.discard()
		return nil, err
	}
	return &spillStream{sf: s, r: bufio.NewReaderSize(s.f, 64<<10), remaining: s.n}, nil
}

// discard closes and removes the file. Idempotent.
func (s *spillFile) discard() {
	if s == nil || s.f == nil {
		return
	}
	name := s.f.Name()
	s.f.Close()
	os.Remove(name)
	s.f = nil
	spillLive.Add(-1)
}

type spillStream struct {
	sf        *spillFile
	r         *bufio.Reader
	remaining int
}

func (st *spillStream) next() (spillRow, bool, error) {
	if st.remaining == 0 {
		return spillRow{}, false, nil
	}
	st.remaining--
	row, err := readSpillRow(st.r)
	if err != nil {
		return spillRow{}, false, err
	}
	return row, true, nil
}

func (st *spillStream) close() { st.sf.discard() }

func (st *spillStream) len() int { return st.remaining }

// mergeSource is one pre-sorted input of a k-way merge.
type mergeSource interface {
	next() (spillRow, bool, error)
	close()
	// len reports the rows not yet returned by next.
	len() int
}

// memStream replays an in-memory (already sorted) run.
type memStream struct {
	rows []spillRow
	i    int
}

func (m *memStream) next() (spillRow, bool, error) {
	if m.i >= len(m.rows) {
		return spillRow{}, false, nil
	}
	r := m.rows[m.i]
	m.i++
	return r, true, nil
}

func (m *memStream) close() {}

func (m *memStream) len() int { return len(m.rows) - m.i }

// runMerger merges pre-sorted sources into one stream under less.
// Sources are closed (removing their files) the moment they exhaust.
// The source count is small — bounded by maxMergeWidth plus one — so a
// linear scan over the current heads beats heap bookkeeping.
type runMerger struct {
	srcs  []mergeSource
	heads []spillRow
	live  []bool
	less  func(a, b spillRow) bool
	left  int // rows not yet returned by next
}

// newRunMerger primes every source; on error all sources are closed.
func newRunMerger(srcs []mergeSource, less func(a, b spillRow) bool) (*runMerger, error) {
	m := &runMerger{srcs: srcs, heads: make([]spillRow, len(srcs)), live: make([]bool, len(srcs)), less: less}
	for _, s := range srcs {
		m.left += s.len()
	}
	for i, s := range srcs {
		r, ok, err := s.next()
		if err != nil {
			m.close()
			return nil, err
		}
		if ok {
			m.heads[i], m.live[i] = r, true
		} else {
			s.close()
			m.srcs[i] = nil
		}
	}
	return m, nil
}

func (m *runMerger) next() (spillRow, bool, error) {
	best := -1
	for i, ok := range m.live {
		if !ok {
			continue
		}
		if best < 0 || m.less(m.heads[i], m.heads[best]) {
			best = i
		}
	}
	if best < 0 {
		return spillRow{}, false, nil
	}
	out := m.heads[best]
	m.left--
	r, ok, err := m.srcs[best].next()
	if err != nil {
		return spillRow{}, false, err
	}
	if ok {
		m.heads[best] = r
	} else {
		m.live[best] = false
		m.srcs[best].close()
		m.srcs[best] = nil
	}
	return out, true, nil
}

func (m *runMerger) close() {
	for i, s := range m.srcs {
		if s != nil {
			s.close()
			m.srcs[i] = nil
		}
		m.live[i] = false
	}
}

// writeRun spills the given (already sorted) rows into a fresh file.
func writeRun(rows []spillRow) (*spillFile, error) {
	f, err := newSpillFile()
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := f.add(r); err != nil {
			f.discard()
			return nil, err
		}
	}
	return f, nil
}

// compactRuns merges sorted runs into one bigger run on disk, bounding
// the number of files the final merge must hold open. Merging sorted
// runs yields a sorted run under the same comparator (the seq
// tie-break keeps it total), so compaction never perturbs the final
// order.
func compactRuns(runs []*spillFile, less func(a, b spillRow) bool) (*spillFile, error) {
	srcs := make([]mergeSource, 0, len(runs))
	for _, f := range runs {
		st, err := f.stream()
		if err != nil {
			for _, s := range srcs {
				s.close()
			}
			return nil, err
		}
		srcs = append(srcs, st)
	}
	m, err := newRunMerger(srcs, less)
	if err != nil {
		return nil, err
	}
	out, err := newSpillFile()
	if err != nil {
		m.close()
		return nil, err
	}
	for {
		r, ok, err := m.next()
		if err != nil {
			m.close()
			out.discard()
			return nil, err
		}
		if !ok {
			break
		}
		if err := out.add(r); err != nil {
			m.close()
			out.discard()
			return nil, err
		}
	}
	m.close()
	return out, nil
}

func openSpillParts() ([]*spillFile, error) {
	parts := make([]*spillFile, spillParts)
	for i := range parts {
		f, err := newSpillFile()
		if err != nil {
			for _, p := range parts[:i] {
				p.discard()
			}
			return nil, err
		}
		parts[i] = f
	}
	return parts, nil
}

func spillPart(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % spillParts)
}

// ---------------------------------------------------------------------
// Byte accounting helpers
// ---------------------------------------------------------------------

func spillRowBytes(r spillRow) int64 {
	n := int64(64) + int64(len(r.key))
	for _, v := range r.keys {
		n += value.ApproxSize(v)
	}
	for _, v := range r.vals {
		n += value.ApproxSize(v)
	}
	return n
}

func envApproxBytes(e expr.Env) int64 {
	n := int64(48)
	for k, v := range e {
		n += 16 + int64(len(k)) + value.ApproxSize(v)
	}
	return n
}

func envFromVals(cols []string, vals []value.Value) expr.Env {
	env := make(expr.Env, len(cols))
	for j, c := range cols {
		env[c] = vals[j]
	}
	return env
}

// ---------------------------------------------------------------------
// External sort (Sort barrier)
// ---------------------------------------------------------------------

// sortRowLess orders spill rows by the ORDER BY keys with the global
// intake sequence as final tie-break. Because every row has a unique
// seq the order is total, so a plain sort.Slice of a run — and any
// merge of runs under the same comparator — reproduces exactly the
// order sort.SliceStable over the whole input would have produced.
func sortRowLess(sorts []*ast.SortItem) func(a, b spillRow) bool {
	return func(a, b spillRow) bool {
		for s, item := range sorts {
			c := value.CompareOrder(a.keys[s], b.keys[s])
			if item.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return a.seq < b.seq
	}
}

func sortSpillRows(rows []spillRow, less func(a, b spillRow) bool) {
	sort.Slice(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
}

// fill drains the child, computing each row's sort keys at intake
// (over the row's source environment overlaid with its columns, as the
// in-memory sort did) and accumulating rows up to the memory budget.
// Over budget, the pending rows are sorted and spilled as one run;
// replay is then a k-way merge of the runs plus the final in-memory
// tail. With no budget (the default) nothing ever spills and replay is
// a plain in-memory sorted slice.
func (o *Sort) fill() (err error) {
	defer func() {
		if err != nil {
			for _, f := range o.runs {
				f.discard()
			}
			o.runs = nil
		}
	}()
	if ex, ok := o.child.(*Exchange); ok {
		return o.fillParallel(ex)
	}
	less := sortRowLess(o.sorts)
	cols := o.child.Columns()
	o.ocols = cols
	scratch := make(expr.Env, len(cols)+4)
	var pend []spillRow
	var pendBytes int64
	seq := int64(0)
	for {
		b, ok, err2 := o.child.NextBatch(BatchTarget)
		if err2 != nil {
			return err2
		}
		if !ok {
			break
		}
		for i := 0; i < b.n; i++ {
			if b.src != nil && b.src[i] != nil {
				for k, v := range b.src[i] {
					scratch[k] = v
				}
			}
			b.loadEnv(scratch, i)
			r := spillRow{seq: seq, keys: make([]value.Value, len(o.sorts)), vals: b.rowVals(i)}
			seq++
			for s, item := range o.sorts {
				v, err2 := o.ev.Eval(item.Expr, scratch)
				if err2 != nil {
					return err2
				}
				r.keys[s] = v
			}
			pend = append(pend, r)
			if o.budget.limited() {
				nb := spillRowBytes(r)
				pendBytes += nb
				o.held += nb
				o.budget.grow(nb)
				if o.held > o.peak {
					o.peak = o.held
				}
				if o.budget.over() && len(pend) >= minSpillRows {
					sortSpillRows(pend, less)
					f, err2 := writeRun(pend)
					if err2 != nil {
						return err2
					}
					o.runs = append(o.runs, f)
					o.spills++
					o.budget.shrink(pendBytes)
					o.held -= pendBytes
					pend, pendBytes = pend[:0], 0
					if len(o.runs) >= maxMergeWidth {
						merged, err2 := compactRuns(o.runs, less)
						if err2 != nil {
							o.runs = nil // compactRuns closed them
							return err2
						}
						o.runs = []*spillFile{merged}
					}
				}
			}
		}
	}
	sortSpillRows(pend, less)
	if len(o.runs) == 0 {
		o.mem = pend
		return nil
	}
	srcs := make([]mergeSource, 0, len(o.runs)+1)
	for _, f := range o.runs {
		st, err2 := f.stream()
		if err2 != nil {
			for _, s := range srcs {
				s.close()
			}
			o.runs = nil // stream/discard handled the rest via defer
			return err2
		}
		srcs = append(srcs, st)
	}
	o.runs = nil // ownership moved to the merge streams
	srcs = append(srcs, &memStream{rows: pend})
	o.merged, err = newRunMerger(srcs, less)
	return err
}

// fillParallel is the parallel-aware intake: instead of gathering the
// exchange's morsels serially, it drains them in callback mode —
// each worker sorts and (over budget) spills its own runs, with the
// statement's memory budget shared atomically across workers — and
// merges everything with the ordinary k-way run merger.
//
// Output is bit-identical to the serial sort: every row gets the
// composite sequence morsel<<morselSeqBits | rowInMorsel, whose
// lexicographic (morsel, row) order is exactly the serial intake
// order, so the comparator's seq tie-break reproduces
// sort.SliceStable's stability at any parallelism. Sort keys are
// evaluated on the workers (shared evaluator, pure reads), so ORDER BY
// key computation parallelizes too.
//
// Called from fill, whose defer discards o.runs on error.
func (o *Sort) fillParallel(ex *Exchange) error {
	less := sortRowLess(o.sorts)
	cols := ex.Columns()
	o.ocols = cols
	type wstate struct {
		scratch   expr.Env
		pend      []spillRow
		pendBytes int64
		morsel    int
		inMorsel  int64
		runs      []*spillFile
	}
	states := make([]*wstate, ex.poolSize())
	var held, peak, spills atomic.Int64
	err := ex.drainParallel(func(wid, morsel int, b *Batch) error {
		ws := states[wid]
		if ws == nil {
			ws = &wstate{scratch: make(expr.Env, len(cols)+4), morsel: -1}
			states[wid] = ws
		}
		if morsel != ws.morsel {
			ws.morsel, ws.inMorsel = morsel, 0
		}
		for i := 0; i < b.n; i++ {
			if b.src != nil && b.src[i] != nil {
				for k, v := range b.src[i] {
					ws.scratch[k] = v
				}
			}
			b.loadEnv(ws.scratch, i)
			r := spillRow{
				seq:  int64(morsel)<<morselSeqBits | ws.inMorsel,
				keys: make([]value.Value, len(o.sorts)),
				vals: b.rowVals(i),
			}
			ws.inMorsel++
			for s, item := range o.sorts {
				v, err := o.ev.Eval(item.Expr, ws.scratch)
				if err != nil {
					return err
				}
				r.keys[s] = v
			}
			ws.pend = append(ws.pend, r)
			if o.budget.limited() {
				nb := spillRowBytes(r)
				ws.pendBytes += nb
				o.budget.grow(nb)
				if h := held.Add(nb); h > peak.Load() {
					// Racy max is fine: peak is a reporting counter.
					peak.Store(h)
				}
				if o.budget.over() && len(ws.pend) >= minSpillRows {
					sortSpillRows(ws.pend, less)
					f, err := writeRun(ws.pend)
					if err != nil {
						return err
					}
					ws.runs = append(ws.runs, f)
					spills.Add(1)
					o.budget.shrink(ws.pendBytes)
					held.Add(-ws.pendBytes)
					ws.pend, ws.pendBytes = ws.pend[:0], 0
					if len(ws.runs) >= maxMergeWidth {
						merged, err := compactRuns(ws.runs, less)
						ws.runs = nil // compactRuns closed them
						if err != nil {
							return err
						}
						ws.runs = []*spillFile{merged}
					}
				}
			}
		}
		return nil
	})
	// Workers have exited: collect their runs and in-memory tails (no
	// concurrency from here on). Runs go to o.runs first so fill's
	// defer discards them on any error below.
	var tails [][]spillRow
	for _, ws := range states {
		if ws == nil {
			continue
		}
		o.runs = append(o.runs, ws.runs...)
		if len(ws.pend) > 0 {
			sortSpillRows(ws.pend, less)
			tails = append(tails, ws.pend)
		}
	}
	o.held, o.peak, o.spills = held.Load(), peak.Load(), spills.Load()
	if err != nil {
		return err
	}
	if len(o.runs) == 0 {
		switch len(tails) {
		case 0:
			o.mem = nil
			return nil
		case 1:
			o.mem = tails[0]
			return nil
		}
	}
	// Bound the final merge width over the combined file runs (each
	// worker already bounded its own, but their union may exceed it).
	for len(o.runs) > maxMergeWidth {
		merged, err := compactRuns(o.runs[:maxMergeWidth], less)
		if err != nil {
			o.runs = o.runs[maxMergeWidth:] // compacted ones are closed
			return err
		}
		o.runs = append(o.runs[maxMergeWidth:], merged)
	}
	srcs := make([]mergeSource, 0, len(o.runs)+len(tails))
	for i, f := range o.runs {
		st, err := f.stream()
		if err != nil {
			for _, s := range srcs {
				s.close()
			}
			o.runs = o.runs[i+1:] // f discarded itself; defer discards the rest
			return err
		}
		srcs = append(srcs, st)
	}
	o.runs = nil // ownership moved to the merge streams
	for _, t := range tails {
		srcs = append(srcs, &memStream{rows: t})
	}
	var err2 error
	o.merged, err2 = newRunMerger(srcs, less)
	return err2
}

// next1 replays one row of the sorted output.
func (o *Sort) next1() (spillRow, bool, error) {
	if o.merged != nil {
		return o.merged.next()
	}
	if o.memIdx >= len(o.mem) {
		return spillRow{}, false, nil
	}
	r := o.mem[o.memIdx]
	o.memIdx++
	return r, true, nil
}

// ---------------------------------------------------------------------
// Spilling hash aggregation (Aggregate barrier)
// ---------------------------------------------------------------------

// fill drains the child into a resident hash of groups. When the
// budget overflows, no further resident groups are admitted: rows of
// already-resident keys keep aggregating in place, rows of new keys
// spill to hash partitions by group key. Each partition is then
// processed alone (its groups are disjoint from the residents' and
// from other partitions'), so deferred state is roughly 1/spillParts
// of the overflowed key space at a time.
//
// Output order is first-appearance of the group key: residents were
// all admitted before the first spilled row (admission stops at
// overflow), so every deferred group's first occurrence is later than
// every resident's — emitting residents in admission order, then
// deferred groups sorted by their first-occurrence sequence, is
// exactly the order the in-memory operator produces.
func (o *Aggregate) fill() (err error) {
	defer func() {
		if err != nil {
			for _, p := range o.parts {
				p.discard()
			}
			o.parts = nil
		}
	}()
	var keyItems []int
	var aggCalls []*ast.FuncCall
	for idx, it := range o.items {
		if !ast.ContainsAggregate(it.Expr) {
			keyItems = append(keyItems, idx)
		}
		ast.Walk(it.Expr, func(e ast.Expr) bool {
			if f, ok := e.(*ast.FuncCall); ok && ast.AggregateFuncs[f.Name] {
				aggCalls = append(aggCalls, f)
				return false // aggregates cannot nest
			}
			return true
		})
	}

	type group struct {
		rep      expr.Env
		aggs     []expr.Aggregator
		firstSeq int64
	}
	newGroup := func(rep expr.Env, seq int64) (*group, error) {
		grp := &group{rep: rep, firstSeq: seq}
		for _, f := range aggCalls {
			agg, err := expr.NewAggregator(f.Name, f.Distinct, f.Star)
			if err != nil {
				return nil, err
			}
			grp.aggs = append(grp.aggs, agg)
		}
		return grp, nil
	}
	addRow := func(grp *group, env expr.Env) error {
		for ai, f := range aggCalls {
			var v value.Value = nullValue
			if !f.Star {
				if len(f.Args) != 1 {
					return fmt.Errorf("%s() expects 1 argument", f.Name)
				}
				var err error
				v, err = o.ev.Eval(f.Args[0], env)
				if err != nil {
					return err
				}
			}
			if o.budget.limited() {
				if nb := grp.aggs[ai].Retains(v); nb > 0 {
					o.held += nb
					o.budget.grow(nb)
					if o.held > o.peak {
						o.peak = o.held
					}
				}
			}
			if err := grp.aggs[ai].Add(v); err != nil {
				return err
			}
		}
		return nil
	}
	finalize := func(grp *group) (expr.Env, error) {
		aggResults := make(map[ast.Expr]value.Value, len(aggCalls))
		for ai, f := range aggCalls {
			aggResults[f] = grp.aggs[ai].Result()
		}
		o.ev.AggResults = aggResults
		defer func() { o.ev.AggResults = nil }()
		out := make(expr.Env, len(o.items))
		for _, it := range o.items {
			v, err := o.ev.Eval(it.Expr, grp.rep)
			if err != nil {
				return nil, err
			}
			out[it.Alias] = v
		}
		return normalize(o.cols, out), nil
	}

	groups := make(map[string]*group)
	var order []string
	cols := o.child.Columns()
	scratch := make(expr.Env, len(cols))
	n := 0
	seq := int64(0)
	for {
		b, ok, err2 := o.child.NextBatch(BatchTarget)
		if err2 != nil {
			return err2
		}
		if !ok {
			break
		}
		for i := 0; i < b.n; i++ {
			n++
			b.loadEnv(scratch, i)
			keyVals := make([]value.Value, len(keyItems))
			for k, ki := range keyItems {
				v, err2 := o.ev.Eval(o.items[ki].Expr, scratch)
				if err2 != nil {
					return err2
				}
				keyVals[k] = v
			}
			key := value.KeyList(keyVals)
			grp, resident := groups[key]
			if !resident {
				if o.spilling {
					if err2 := o.parts[spillPart(key)].add(spillRow{seq: seq, key: key, vals: b.rowVals(i)}); err2 != nil {
						return err2
					}
					seq++
					continue
				}
				grp, err = newGroup(b.Env(i), seq)
				if err != nil {
					return err
				}
				groups[key] = grp
				order = append(order, key)
				if o.budget.limited() {
					nb := int64(len(key)) + envApproxBytes(grp.rep) + 96
					o.held += nb
					o.budget.grow(nb)
					if o.held > o.peak {
						o.peak = o.held
					}
					if o.budget.over() && !o.spilling {
						if o.parts, err = openSpillParts(); err != nil {
							return err
						}
						o.spilling = true
					}
				}
			}
			if err = addRow(grp, scratch); err != nil {
				return err
			}
			seq++
		}
	}

	// Zero input rows with no grouping keys: a single global group.
	if n == 0 && len(keyItems) == 0 {
		grp, err2 := newGroup(expr.Env{}, 0)
		if err2 != nil {
			return err2
		}
		groups["_"] = grp
		order = append(order, "_")
	}

	for _, key := range order {
		env, err2 := finalize(groups[key])
		if err2 != nil {
			return err2
		}
		o.out = append(o.out, env)
	}
	if !o.spilling {
		return nil
	}

	// Deferred phase: process each partition alone. Group keys hash to
	// exactly one partition, so a partition's groups are complete and
	// disjoint from everything else. Finalized output rows accumulate
	// in o.out like any result set — the budget bounds barrier state,
	// not the statement's output.
	type outGroup struct {
		firstSeq int64
		env      expr.Env
	}
	var deferred []outGroup
	parts := o.parts
	o.parts = nil
	defer func() {
		if err != nil {
			for _, p := range parts {
				p.discard()
			}
		}
	}()
	for pi, p := range parts {
		st, err2 := p.stream()
		if err2 != nil {
			parts[pi] = nil
			return err2
		}
		parts[pi] = nil
		o.spills++
		pgroups := make(map[string]*group)
		var porder []string
		partStart := o.held
		for {
			r, ok, err2 := st.next()
			if err2 != nil {
				st.close()
				return err2
			}
			if !ok {
				break
			}
			for j, c := range cols {
				scratch[c] = r.vals[j]
			}
			grp, ok2 := pgroups[r.key]
			if !ok2 {
				grp, err = newGroup(envFromVals(cols, r.vals), r.seq)
				if err != nil {
					st.close()
					return err
				}
				pgroups[r.key] = grp
				porder = append(porder, r.key)
				if o.budget.limited() {
					nb := int64(len(r.key)) + envApproxBytes(grp.rep) + 96
					o.held += nb
					o.budget.grow(nb)
					if o.held > o.peak {
						o.peak = o.held
					}
				}
			}
			if err = addRow(grp, scratch); err != nil {
				st.close()
				return err
			}
		}
		st.close()
		for _, key := range porder {
			env, err2 := finalize(pgroups[key])
			if err2 != nil {
				return err2
			}
			deferred = append(deferred, outGroup{firstSeq: pgroups[key].firstSeq, env: env})
		}
		// Release this partition's accounted state before the next.
		o.budget.shrink(o.held - partStart)
		o.held = partStart
	}
	sort.Slice(deferred, func(i, j int) bool { return deferred[i].firstSeq < deferred[j].firstSeq })
	for _, g := range deferred {
		o.out = append(o.out, g.env)
	}
	return nil
}

// ---------------------------------------------------------------------
// Spilling DISTINCT (batch path)
// ---------------------------------------------------------------------

// distinctNextBatch implements the batched DISTINCT. Under budget it
// streams first occurrences exactly like the row path. On overflow the
// seen-set stops growing: rows whose key is resident are duplicates
// and are dropped; rows with new keys spill (with their intake
// sequence number) to hash partitions. After the child is exhausted,
// each partition is processed alone — first occurrence per key within
// a partition is decidable in file order, which is seq order — and the
// survivors, re-spilled per partition, are merged back by seq.
//
// Every spilled row's seq is greater than every streamed row's (the
// seen-set stops admitting at overflow), so streamed-then-merged
// output is globally in first-occurrence order: identical to the row
// path's.
func (o *Distinct) distinctNextBatch(max int) (*Batch, bool, error) {
	if o.dcols == nil {
		o.dcols = o.child.Columns()
		o.keybuf = make([]value.Value, len(o.dcols))
	}
	for !o.drained {
		in, ok, err := o.child.NextBatch(max)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			o.drained = true
			break
		}
		sel := o.selbuf[:0]
		for i := 0; i < in.n; i++ {
			for j := range o.dcols {
				o.keybuf[j] = in.vals[j][i]
			}
			key := value.KeyList(o.keybuf)
			seq := o.seq
			o.seq++
			if o.seen[key] {
				continue
			}
			if o.spilling {
				if err := o.parts[spillPart(key)].add(spillRow{seq: seq, key: key, vals: in.rowVals(i)}); err != nil {
					return nil, false, err
				}
				continue
			}
			o.seen[key] = true
			if o.budget.limited() {
				nb := int64(len(key)) + 48
				o.held += nb
				o.budget.grow(nb)
				if o.held > o.peak {
					o.peak = o.held
				}
				if o.budget.over() && !o.spilling {
					if o.parts, err = openSpillParts(); err != nil {
						return nil, false, err
					}
					o.spilling = true
				}
			}
			sel = append(sel, i)
		}
		o.selbuf = sel
		if len(sel) == 0 {
			continue
		}
		o.rows += int64(len(sel))
		o.batches++
		if len(sel) == in.n {
			// Distinct breaks the row/source-record correspondence, so
			// the source environments must not travel past it.
			in.src = nil
			return in, true, nil
		}
		out := newBatch(in.cols, len(sel))
		for j := range out.vals {
			for _, i := range sel {
				out.vals[j] = append(out.vals[j], in.vals[j][i])
			}
		}
		out.n = len(sel)
		return out, true, nil
	}
	if !o.spilling {
		return nil, false, nil
	}
	if o.merged == nil {
		if err := o.buildDeferred(); err != nil {
			return nil, false, err
		}
	}
	if o.merged.left == 0 {
		return nil, false, nil
	}
	want := min(clampMax(max), o.merged.left)
	b := newBatch(o.dcols, want)
	for b.n < want {
		r, ok, err := o.merged.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		b.appendVals(r.vals)
	}
	o.rows += int64(b.n)
	o.batches++
	return b, true, nil
}

// buildDeferred runs the per-partition survivor pass and sets up the
// seq-order merge of the survivor files. Only one partition's seen-set
// is resident at a time.
func (o *Distinct) buildDeferred() (err error) {
	var srcs []mergeSource
	defer func() {
		if err != nil {
			for _, s := range srcs {
				s.close()
			}
		}
	}()
	parts := o.parts
	o.parts = nil
	defer func() {
		if err != nil {
			for _, p := range parts {
				p.discard()
			}
		}
	}()
	for pi, p := range parts {
		st, err2 := p.stream()
		if err2 != nil {
			parts[pi] = nil
			return err2
		}
		parts[pi] = nil
		o.spills++
		surv, err2 := newSpillFile()
		if err2 != nil {
			st.close()
			return err2
		}
		pseen := make(map[string]bool)
		pheld := int64(0)
		for {
			r, ok, err2 := st.next()
			if err2 != nil {
				st.close()
				surv.discard()
				return err2
			}
			if !ok {
				break
			}
			if pseen[r.key] {
				continue
			}
			pseen[r.key] = true
			if o.budget.limited() {
				pheld += int64(len(r.key)) + 48
				if o.held+pheld > o.peak {
					o.peak = o.held + pheld
				}
			}
			if err2 := surv.add(spillRow{seq: r.seq, vals: r.vals}); err2 != nil {
				st.close()
				surv.discard()
				return err2
			}
		}
		st.close()
		ss, err2 := surv.stream()
		if err2 != nil {
			return err2
		}
		srcs = append(srcs, ss)
	}
	o.merged, err = newRunMerger(srcs, func(a, b spillRow) bool { return a.seq < b.seq })
	if err != nil {
		srcs = nil // newRunMerger closed them
	}
	return err
}
