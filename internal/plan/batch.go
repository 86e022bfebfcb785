package plan

import (
	"fmt"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/value"
)

// BatchTarget is the default number of rows per batch. Consumers pass
// it to NextBatch unless they need fewer rows (LIMIT passes its
// remaining count so early exit keeps pruning upstream enumeration).
const BatchTarget = 256

// Batch is a columnar slice of records over an operator's column set:
// vals[j][r] is row r of column j, with absent values stored as
// explicit nulls (never nil), mirroring Row.Env's normalization. A
// batch is produced by one operator and owned by its consumer; it is
// never reused after being handed off.
//
// src optionally carries the pre-projection source environment of each
// row (Row.Src's batched counterpart) so a downstream Sort can
// evaluate ORDER BY keys over input variables; it is dropped at the
// same operators that drop Row.Src.
type Batch struct {
	cols []string
	vals [][]value.Value
	src  []expr.Env
	n    int
}

// newBatch makes an empty batch over cols with room for rows rows.
// Every operator follows one sizing rule: a batch is created only once
// its first row is in hand, and rows counts the rows the operator then
// holds for it — the enumeration slice, the remaining input rows, the
// rows a barrier still has to replay — capped at the pull's max. No
// column reserves room for rows that may never exist, so an exhausted
// pull allocates nothing and a one-row result holds one row; a batch
// that outgrows the count grows by append.
func newBatch(cols []string, rows int) *Batch {
	b := &Batch{cols: cols, vals: make([][]value.Value, len(cols))}
	for j := range b.vals {
		b.vals[j] = make([]value.Value, 0, rows)
	}
	return b
}

// Len reports the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// Columns returns the column names, in order. The slice is shared.
func (b *Batch) Columns() []string { return b.cols }

// Value returns column j of row i.
func (b *Batch) Value(i, j int) value.Value { return b.vals[j][i] }

// appendEnv appends one row given as an environment, normalizing:
// missing or nil columns become explicit nulls.
func (b *Batch) appendEnv(env expr.Env) {
	for j, c := range b.cols {
		v, ok := env[c]
		if !ok || v == nil {
			v = nullValue
		}
		b.vals[j] = append(b.vals[j], v)
	}
	b.n++
}

// appendVals appends one row given as a value slice in column order.
// Values are shared; the slice itself is not retained.
func (b *Batch) appendVals(vals []value.Value) {
	for j := range b.cols {
		v := vals[j]
		if v == nil {
			v = nullValue
		}
		b.vals[j] = append(b.vals[j], v)
	}
	b.n++
}

// appendRowFrom appends row i of src, including its source environment
// when present.
func (b *Batch) appendRowFrom(src *Batch, i int) {
	for j := range b.vals {
		b.vals[j] = append(b.vals[j], src.vals[j][i])
	}
	if src.src != nil {
		b.src = append(b.src, src.src[i])
	}
	b.n++
}

// slice returns a view of rows [from, to) sharing column storage.
func (b *Batch) slice(from, to int) *Batch {
	out := &Batch{cols: b.cols, vals: make([][]value.Value, len(b.vals)), n: to - from}
	for j := range b.vals {
		out.vals[j] = b.vals[j][from:to]
	}
	if b.src != nil {
		out.src = b.src[from:to]
	}
	return out
}

// Env materializes row i as a fresh normalized environment.
func (b *Batch) Env(i int) expr.Env {
	env := make(expr.Env, len(b.cols))
	for j, c := range b.cols {
		env[c] = b.vals[j][i]
	}
	return env
}

// loadEnv overwrites the batch's columns of env with row i's values.
// Operators reuse one scratch environment across the rows of a batch:
// this is safe because expression evaluation never retains the
// environment it is handed — every extension goes through Env.With,
// which copies.
func (b *Batch) loadEnv(env expr.Env, i int) {
	for j, c := range b.cols {
		env[c] = b.vals[j][i]
	}
}

// rowVals copies row i into a fresh value slice in column order.
func (b *Batch) rowVals(i int) []value.Value {
	out := make([]value.Value, len(b.cols))
	for j := range b.cols {
		out[j] = b.vals[j][i]
	}
	return out
}

func clampMax(max int) int {
	if max < 1 {
		return 1
	}
	if max > BatchTarget {
		return BatchTarget
	}
	return max
}

// ---------------------------------------------------------------------
// Single-use state guard
// ---------------------------------------------------------------------

// opState makes the operator contract's single-use rule explicit:
// Open errors on reuse (double Open, or Open after Close), and Close
// is idempotent. Close before Open is allowed — EXPLAIN closes plans
// it never opened.
type opState struct {
	opened, closed bool
}

func (s *opState) open(name string) error {
	if s.closed {
		return internalErrorf("%s: Open after Close (operators are single-use)", name)
	}
	if s.opened {
		return internalErrorf("%s: double Open (operators are single-use)", name)
	}
	s.opened = true
	return nil
}

// close reports whether this is the first Close.
func (s *opState) close() bool {
	if s.closed {
		return false
	}
	s.closed = true
	return true
}

// ---------------------------------------------------------------------
// Memory budget
// ---------------------------------------------------------------------

// budget tracks a statement's accounted barrier memory against a
// limit. One budget is shared by every barrier of a statement (union
// members included), so concurrent barriers cannot each claim the full
// allowance — including the workers of a parallel Sort intake, which is
// why the counter is atomic. A nil budget or a non-positive limit means
// unlimited: no accounting and no spilling, the default.
type budget struct {
	limit int64
	used  atomic.Int64
}

func newBudget(limit int64) *budget { return &budget{limit: limit} }

// limited reports whether accounting (and spilling) is enabled at all.
// The limit is immutable after newBudget, so this needs no atomics.
func (b *budget) limited() bool { return b != nil && b.limit > 0 }

func (b *budget) grow(n int64) {
	if b != nil {
		b.used.Add(n)
	}
}

func (b *budget) shrink(n int64) {
	if b != nil && b.used.Add(-n) < 0 {
		// Clamp at zero; a transient negative from a concurrent shrink
		// race only under-counts for the instant before the racing grow
		// lands, which is safe (spilling is best-effort bounding).
		for {
			cur := b.used.Load()
			if cur >= 0 || b.used.CompareAndSwap(cur, 0) {
				return
			}
		}
	}
}

func (b *budget) over() bool { return b.limited() && b.used.Load() > b.limit }

// ---------------------------------------------------------------------
// EXPLAIN statistics
// ---------------------------------------------------------------------

// statsSuffix renders the per-operator execution counters appended to
// Name(). Before execution both counters are zero and the suffix is
// empty, so a plain (non-executing) EXPLAIN renders exactly as before.
func statsSuffix(rows, batches int64) string {
	if rows == 0 && batches == 0 {
		return ""
	}
	return fmt.Sprintf(" {rows=%d batches=%d}", rows, batches)
}

// barrierSuffix additionally renders the barrier's peak accounted
// memory and spill-run count when a memory budget was in force.
func barrierSuffix(rows, batches, peak, spills int64) string {
	if peak == 0 && spills == 0 {
		return statsSuffix(rows, batches)
	}
	if rows == 0 && batches == 0 && peak == 0 && spills == 0 {
		return ""
	}
	return fmt.Sprintf(" {rows=%d batches=%d peak=%s spill-runs=%d}", rows, batches, humanBytes(peak), spills)
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ---------------------------------------------------------------------
// NextBatch: sources
// ---------------------------------------------------------------------

// NextBatch implements Operator: the unit table's single empty row as
// a zero-column batch.
func (o *Unit) NextBatch(max int) (*Batch, bool, error) {
	if o.done {
		return nil, false, nil
	}
	o.done = true
	b := newBatch(nil, 1)
	b.n = 1
	o.rows++
	o.batches++
	return b, true, nil
}

// NextBatch implements Operator: rows are copied straight out of the
// table's columnar window, with no per-row map.
func (o *TableScan) NextBatch(max int) (*Batch, bool, error) {
	max = clampMax(max)
	if o.bpos >= o.t.Len() {
		return nil, false, nil
	}
	end := o.bpos + max
	if end > o.t.Len() {
		end = o.t.Len()
	}
	b := newBatch(o.Columns(), end-o.bpos)
	o.t.ReadColumns(o.bpos, end, b.vals)
	b.n = end - o.bpos
	o.bpos = end
	o.rows += int64(b.n)
	o.batches++
	return b, true, nil
}

// ---------------------------------------------------------------------
// NextBatch: Match
// ---------------------------------------------------------------------

// NextBatch implements Operator. Matches are drained from the
// matcher's enumeration in slices of up to max (one coroutine switch
// per slice, not per match — see match.Cursor) and written straight
// into the output columns, skipping the per-match environment
// normalization of the row path. Input is pulled with the consumer's
// max so a LIMIT above still bounds enumeration.
func (o *Match) NextBatch(max int) (*Batch, bool, error) {
	max = clampMax(max)
	var out *Batch
	for out == nil || out.n < max {
		if len(o.bbuf) > 0 {
			if out == nil {
				out = newBatch(o.cols, min(max, len(o.bbuf)+o.bin.n-o.binIdx))
			}
			take := min(max-out.n, len(o.bbuf))
			for _, me := range o.bbuf[:take] {
				out.appendEnv(me)
				o.emitted++
			}
			o.bbuf = o.bbuf[take:]
			continue
		}
		if o.bcur == nil {
			if o.bin == nil || o.binIdx >= o.bin.n {
				if o.bdone {
					break
				}
				in, ok, err := o.child.NextBatch(max)
				if err != nil {
					return nil, false, err
				}
				if !ok {
					o.bdone = true
					break
				}
				o.bin, o.binIdx = in, 0
			}
			env := o.bin.Env(o.binIdx)
			o.binIdx++
			o.curRow = env
			o.emitted = 0
			o.bcur = o.matcher.NewCursor(o.cl.Pattern, env, max, o.whereFilter())
			continue
		}
		envs, ok := o.bcur.Next()
		if ok {
			o.bbuf = envs
			continue
		}
		err := o.bcur.Stop()
		optional := o.cl.Optional && o.emitted == 0
		o.bcur = nil
		if err != nil {
			return nil, false, err
		}
		if optional {
			if out == nil {
				out = newBatch(o.cols, min(max, 1+o.bin.n-o.binIdx))
			}
			// appendEnv fills the unbound pattern variables with nulls.
			out.appendEnv(o.curRow)
		}
	}
	if out == nil {
		return nil, false, nil
	}
	o.rows += int64(out.n)
	o.batches++
	return out, true, nil
}

// whereFilter returns the clause's WHERE as a cursor filter, or nil.
func (o *Match) whereFilter() func(expr.Env) (bool, error) {
	if o.cl.Where == nil {
		return nil
	}
	return func(me expr.Env) (bool, error) {
		ok, err := o.ev.EvalBool(o.cl.Where, me)
		if err != nil {
			return false, err
		}
		return ok == value.True, nil
	}
}

// ---------------------------------------------------------------------
// NextBatch: Unwind / LoadCSV
// ---------------------------------------------------------------------

// NextBatch implements Operator natively: output rows are written
// straight into the output columns — the input row's values are copied
// columnar, with no per-row environment map — and the list expression
// is evaluated once per input row over a reused scratch environment.
// Like the row path, a null list contributes nothing and a non-list
// value unwinds as a single element.
func (o *Unwind) NextBatch(max int) (*Batch, bool, error) {
	max = clampMax(max)
	var out *Batch
	nchild := len(o.cols) - 1
	for out == nil || out.n < max {
		if o.idx < len(o.elems) {
			if out == nil {
				out = newBatch(o.cols, min(max, len(o.elems)-o.idx+o.bin.n-o.binIdx))
			}
			take := min(len(o.elems)-o.idx, max-out.n)
			for k := 0; k < take; k++ {
				for j := 0; j < nchild; j++ {
					out.vals[j] = append(out.vals[j], o.bin.vals[j][o.bcur])
				}
				v := o.elems[o.idx+k]
				if v == nil {
					v = nullValue
				}
				out.vals[nchild] = append(out.vals[nchild], v)
				out.n++
			}
			o.idx += take
			continue
		}
		if o.bin == nil || o.binIdx >= o.bin.n {
			if o.bdone {
				break
			}
			in, ok, err := o.child.NextBatch(max)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				o.bdone = true
				break
			}
			o.bin, o.binIdx = in, 0
			continue
		}
		if o.bscratch == nil {
			o.bscratch = make(expr.Env, len(o.cols)+4)
		}
		o.bin.loadEnv(o.bscratch, o.binIdx)
		v, err := o.ev.Eval(o.cl.Expr, o.bscratch)
		if err != nil {
			return nil, false, err
		}
		o.bcur = o.binIdx
		o.binIdx++
		switch lv := v.(type) {
		case value.Null:
			// contributes no rows
		case value.List:
			o.elems, o.idx = lv, 0
		default:
			o.elems, o.idx = value.List{v}, 0
		}
	}
	if out == nil {
		return nil, false, nil
	}
	o.rows += int64(out.n)
	o.batches++
	return out, true, nil
}

// NextBatch implements Operator natively: each CSV data row is written
// straight into the output columns next to a columnar copy of the
// input row that opened the file. Rows are still read from the file
// one at a time as the consumer pulls, so early exit stops reading
// mid-file exactly as in the row path.
func (o *LoadCSV) NextBatch(max int) (*Batch, bool, error) {
	max = clampMax(max)
	var out *Batch
	nchild := len(o.cols) - 1
	for out == nil || out.n < max {
		if o.reader != nil {
			v, ok, err := o.reader.Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				if out == nil {
					// The file's row count is unknown until it is read.
					out = newBatch(o.cols, 1)
				}
				for j := 0; j < nchild; j++ {
					out.vals[j] = append(out.vals[j], o.bin.vals[j][o.bcur])
				}
				if v == nil {
					v = nullValue
				}
				out.vals[nchild] = append(out.vals[nchild], v)
				out.n++
				continue
			}
			o.reader.Close()
			o.reader = nil
		}
		if o.bin == nil || o.binIdx >= o.bin.n {
			if o.bdone {
				break
			}
			in, ok, err := o.child.NextBatch(max)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				o.bdone = true
				break
			}
			o.bin, o.binIdx = in, 0
			continue
		}
		if o.bscratch == nil {
			o.bscratch = make(expr.Env, len(o.cols)+4)
		}
		o.bin.loadEnv(o.bscratch, o.binIdx)
		urlVal, err := o.ev.Eval(o.cl.URL, o.bscratch)
		if err != nil {
			return nil, false, err
		}
		url, oks := value.AsString(urlVal)
		if !oks {
			return nil, false, fmt.Errorf("LOAD CSV FROM expects a string, got %s", urlVal.Kind())
		}
		r, err := OpenCSV(string(url), o.cl.FieldTerm, o.cl.WithHeaders)
		if err != nil {
			return nil, false, err
		}
		o.bcur = o.binIdx
		o.binIdx++
		o.reader = r
	}
	if out == nil {
		return nil, false, nil
	}
	o.rows += int64(out.n)
	o.batches++
	return out, true, nil
}

// ---------------------------------------------------------------------
// NextBatch: Filter / Project / Distinct / Skip / Limit
// ---------------------------------------------------------------------

// NextBatch implements Operator. The predicate is evaluated over a
// scratch environment reused across rows; a batch that passes in full
// is forwarded without copying.
func (o *Filter) NextBatch(max int) (*Batch, bool, error) {
	for {
		in, ok, err := o.child.NextBatch(max)
		if err != nil || !ok {
			return nil, false, err
		}
		if o.scratch == nil {
			o.scratch = make(expr.Env, len(in.cols))
		}
		sel := o.selbuf[:0]
		for i := 0; i < in.n; i++ {
			in.loadEnv(o.scratch, i)
			keep, err := o.ev.EvalBool(o.pred, o.scratch)
			if err != nil {
				return nil, false, err
			}
			if keep == value.True {
				sel = append(sel, i)
			}
		}
		o.selbuf = sel
		if len(sel) == 0 {
			continue
		}
		o.rows += int64(len(sel))
		o.batches++
		if len(sel) == in.n {
			return in, true, nil
		}
		out := newBatch(in.cols, len(sel))
		for _, i := range sel {
			out.appendRowFrom(in, i)
		}
		return out, true, nil
	}
}

// NextBatch implements Operator. Items are evaluated over a reused
// scratch environment and written into fresh output columns; the only
// per-row allocation on the hot path is the values themselves. With
// keepSrc each input row's environment is materialized and attached so
// a downstream Sort can evaluate ORDER BY keys over it.
func (o *Project) NextBatch(max int) (*Batch, bool, error) {
	in, ok, err := o.child.NextBatch(max)
	if err != nil || !ok {
		return nil, false, err
	}
	if o.scratch == nil {
		o.scratch = make(expr.Env, len(in.cols))
		o.outScratch = make(expr.Env, len(o.items))
	}
	out := newBatch(o.cols, in.n)
	for i := 0; i < in.n; i++ {
		in.loadEnv(o.scratch, i)
		for _, it := range o.items {
			v, err := o.ev.Eval(it.Expr, o.scratch)
			if err != nil {
				return nil, false, err
			}
			o.outScratch[it.Alias] = v
		}
		out.appendEnv(o.outScratch)
		if o.keepSrc {
			out.src = append(out.src, in.Env(i))
		}
	}
	o.rows += int64(out.n)
	o.batches++
	return out, true, nil
}

// NextBatch implements Operator; see distinctNextBatch in spill.go for
// the spilling seen-set.
func (o *Distinct) NextBatch(max int) (*Batch, bool, error) {
	return o.distinctNextBatch(max)
}

// NextBatch implements Operator. The skip phase pulls batches sized to
// the remaining skip count, so the total child pulls match the row
// discipline exactly.
func (o *Skip) NextBatch(max int) (*Batch, bool, error) {
	if !o.ready {
		if err := o.ensure(); err != nil {
			return nil, false, err
		}
		rem := o.n
		for rem > 0 {
			want := rem
			if want > BatchTarget {
				want = BatchTarget
			}
			if m := clampMax(max); want < m {
				want = m
			}
			b, ok, err := o.child.NextBatch(want)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			if b.n <= rem {
				rem -= b.n
				continue
			}
			out := b.slice(rem, b.n)
			o.rows += int64(out.n)
			o.batches++
			return out, true, nil
		}
	}
	b, ok, err := o.child.NextBatch(max)
	if ok {
		o.rows += int64(b.n)
		o.batches++
	}
	return b, ok, err
}

// NextBatch implements Operator. The child is pulled with the
// remaining row allowance, so upstream operators (Match enumeration in
// particular) never do more than one batch of excess work.
func (o *Limit) NextBatch(max int) (*Batch, bool, error) {
	if !o.ready {
		if err := o.ensure(); err != nil {
			return nil, false, err
		}
	}
	rem := int64(o.n) - o.rows
	if rem <= 0 {
		return nil, false, nil
	}
	want := clampMax(max)
	if int64(want) > rem {
		want = int(rem)
	}
	b, ok, err := o.child.NextBatch(want)
	if err != nil || !ok {
		return nil, false, err
	}
	if int64(b.n) > rem {
		b = b.slice(0, int(rem))
	}
	o.rows += int64(b.n)
	o.batches++
	return b, true, nil
}

// ---------------------------------------------------------------------
// NextBatch: barriers
// ---------------------------------------------------------------------

// NextBatch implements Operator, replaying the externally sorted
// stream in batches.
func (o *Sort) NextBatch(max int) (*Batch, bool, error) {
	if !o.filled {
		if err := o.fill(); err != nil {
			return nil, false, err
		}
		o.filled = true
	}
	left := len(o.mem) - o.memIdx
	if o.merged != nil {
		left = o.merged.left
	}
	if left == 0 {
		return nil, false, nil
	}
	want := min(clampMax(max), left)
	b := newBatch(o.Columns(), want)
	for b.n < want {
		r, ok, err := o.next1()
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

// NextBatch implements Operator, replaying the finalized groups in
// batches.
func (o *Aggregate) NextBatch(max int) (*Batch, bool, error) {
	if !o.done {
		if err := o.fill(); err != nil {
			return nil, false, err
		}
		o.done = true
	}
	if o.idx >= len(o.out) {
		return nil, false, nil
	}
	max = clampMax(max)
	b := newBatch(o.cols, min(max, len(o.out)-o.idx))
	for b.n < max && o.idx < len(o.out) {
		b.appendEnv(o.out[o.idx])
		o.idx++
	}
	o.rows += int64(b.n)
	o.batches++
	return b, true, nil
}

// NextBatch implements Operator, replaying the update's output table
// in columnar batches.
func (o *Apply) NextBatch(max int) (*Batch, bool, error) {
	if !o.done {
		if err := o.fill(); err != nil {
			return nil, false, err
		}
		o.done = true
	}
	if o.outIdx >= o.out.Len() {
		return nil, false, nil
	}
	end := o.outIdx + clampMax(max)
	if end > o.out.Len() {
		end = o.out.Len()
	}
	b := newBatch(o.cols, end-o.outIdx)
	o.out.ReadColumns(o.outIdx, end, b.vals)
	b.n = end - o.outIdx
	o.outIdx = end
	o.rows += int64(b.n)
	o.batches++
	return b, true, nil
}

// NextBatch implements Operator: the child is drained batch-at-a-time
// for effects, emitting nothing.
func (o *Discard) NextBatch(max int) (*Batch, bool, error) {
	if o.done {
		return nil, false, nil
	}
	o.done = true
	for {
		_, ok, err := o.child.NextBatch(BatchTarget)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		o.batches++
	}
}

// NextBatch implements Operator, streaming members left to right like
// Next. Member batches are forwarded as-is when the member's column
// order matches the union's, and re-mapped otherwise.
func (o *Union) NextBatch(max int) (*Batch, bool, error) {
	for o.idx < len(o.children) {
		b, ok, err := o.children[o.idx].NextBatch(max)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			o.idx++
			continue
		}
		if o.idx > 0 {
			b = remapBatch(b, o.Columns())
		}
		o.rows += int64(b.n)
		o.batches++
		return b, true, nil
	}
	return nil, false, nil
}

// remapBatch reorders a batch's columns to the given order (a
// permutation of its own). Shares column storage; no copying.
func remapBatch(b *Batch, cols []string) *Batch {
	same := len(cols) == len(b.cols)
	if same {
		for j := range cols {
			if cols[j] != b.cols[j] {
				same = false
				break
			}
		}
	}
	if same {
		return b
	}
	out := &Batch{cols: cols, vals: make([][]value.Value, len(cols)), src: b.src, n: b.n}
	for j, c := range cols {
		for k, bc := range b.cols {
			if bc == c {
				out.vals[j] = b.vals[k]
				break
			}
		}
	}
	return out
}
