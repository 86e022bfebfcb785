package match

import (
	"iter"

	"repro/internal/ast"
	"repro/internal/expr"
)

// Cursor adapts Stream's push-style enumeration to batched pulling for
// the vectorized executor. The enumeration runs in a coroutine
// (iter.Pull) that buffers up to max yielded environments per resume,
// so one coroutine switch amortizes over a whole batch of matches
// instead of costing one per row.
//
// Buffering environments across resumes is safe: Stream extends the
// seed environment through Env.With, which copies, so every yielded
// environment is a distinct map.
//
// The first buffer starts at cursorStartCap and grows by append, so an
// enumeration of one match (a point lookup) does not pay for max
// slots; once a full slice has been yielded the next starts at max.
type Cursor struct {
	next    func() ([]expr.Env, bool)
	stop    func()
	err     *error
	stopped bool
}

// NewCursor starts enumerating matches of parts seeded by env and
// returns a cursor over batches of at most max result environments.
// When filter is non-nil it is applied inside the enumeration: only
// environments it reports true for are yielded (and count toward batch
// boundaries); an error from the filter aborts the enumeration.
func (m *Matcher) NewCursor(parts []*ast.PatternPart, env expr.Env, max int, filter func(expr.Env) (bool, error)) *Cursor {
	return newCursor(func(yield func(expr.Env) error) error {
		return m.Stream(parts, env, yield)
	}, max, filter)
}

// cursorStartCap is the capacity of a cursor's first buffer.
const cursorStartCap = 4

// newCursor adapts any push-style enumeration to the Cursor pull
// discipline (NewCursor and NewAnchorCursor share it).
func newCursor(stream func(yield func(expr.Env) error) error, max int, filter func(expr.Env) (bool, error)) *Cursor {
	if max < 1 {
		max = 1
	}
	errp := new(error)
	seq := func(yield func([]expr.Env) bool) {
		buf := make([]expr.Env, 0, min(max, cursorStartCap))
		*errp = stream(func(me expr.Env) error {
			if filter != nil {
				keep, err := filter(me)
				if err != nil {
					return err
				}
				if !keep {
					return nil
				}
			}
			buf = append(buf, me)
			if len(buf) >= max {
				out := buf
				buf = make([]expr.Env, 0, max)
				if !yield(out) {
					return ErrStop
				}
			}
			return nil
		})
		if *errp == nil && len(buf) > 0 {
			yield(buf)
		}
	}
	next, stop := iter.Pull(seq)
	return &Cursor{next: next, stop: stop, err: errp}
}

// Next returns the next batch of match environments; ok is false once
// the enumeration is exhausted or has failed. After ok=false the caller
// must call Stop to collect any enumeration error.
func (c *Cursor) Next() ([]expr.Env, bool) {
	if c.stopped {
		return nil, false
	}
	return c.next()
}

// Stop ends the enumeration (abandoning any unconsumed matches) and
// returns the error it hit, if any. Safe to call multiple times.
func (c *Cursor) Stop() error {
	if !c.stopped {
		c.stopped = true
		c.stop()
	}
	return *c.err
}
