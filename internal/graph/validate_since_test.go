package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// errText renders an error for comparison, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// danglingRels lists, by full scan, the relationships with a missing
// endpoint (the test's own oracle for picking repairs).
func danglingRels(g *Graph) []RelID {
	var out []RelID
	for _, id := range g.RelIDs() {
		if r := g.Rel(id); !g.HasNode(r.Src) || !g.HasNode(r.Tgt) {
			out = append(out, id)
		}
	}
	return out
}

// TestValidateSinceMatchesValidate drives random statement sequences —
// node and relationship creation and deletion (checked, unchecked and
// detached), label, property and index writes, nested Mark/RollbackTo
// inside a statement, statement-level and whole-transaction rollback —
// through an in-place writer, a copy-on-write writer forced by a pinned
// reader, and an isolated writer. At every statement boundary the journal-scoped
// check must agree with the full scan, error text included. Statements
// often strand relationships with an unchecked deletion and then repair
// them before their end, the legal transit of legacy DELETE (Section
// 4.2 of the paper); the rest fail and roll back to their mark, as a
// session does, so the invariant holds again at the next mark.
func TestValidateSinceMatchesValidate(t *testing.T) {
	modes := []string{"in-place", "cow-pinned", "isolated"}
	var boundaries, failures, repaired int
	for seed := int64(0); seed < 16; seed++ {
		for _, mode := range modes {
			rng := rand.New(rand.NewSource(seed))
			s := NewStore(New())
			for txn := 0; txn < 25; txn++ {
				var pin *Snapshot
				var w *WriteTxn
				switch mode {
				case "in-place":
					w = s.BeginWrite()
					if w.cloned {
						t.Fatal("in-place writer cloned with no pinned reader")
					}
				case "cow-pinned":
					pin = s.Acquire()
					w = s.BeginWrite()
					if !w.cloned {
						t.Fatal("writer did not clone despite a pinned reader")
					}
				case "isolated":
					w = s.BeginWriteIsolated()
				}
				g, j := w.Graph(), w.Journal()

				// The commit-path test's generator supplies creation,
				// checked and detached deletion, label, property and
				// schema writes; unchecked deletions, repairs of what they
				// strand and extra relationships are added here.
				ordinary := cowTestOps(t, rng, func() *Graph { return g }, func() []*Graph { return []*Graph{g} })
				op := func() {
					nodes := g.NodeIDs()
					switch rng.Intn(6) {
					case 0:
						if len(nodes) > 0 {
							g.DeleteNodeUnchecked(nodes[rng.Intn(len(nodes))])
						}
					case 1:
						if d := danglingRels(g); len(d) > 0 {
							g.DeleteRel(d[rng.Intn(len(d))])
						}
					case 2:
						// Extra relationships, so deletions have
						// something to strand.
						if len(nodes) > 0 {
							if _, err := g.CreateRel(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], "T", nil); err != nil {
								t.Fatal(err)
							}
						}
					default:
						ordinary()
					}
				}

				for stmt := 0; stmt < 1+rng.Intn(4); stmt++ {
					ctx := fmt.Sprintf("seed=%d mode=%s txn=%d stmt=%d", seed, mode, txn, stmt)
					mark := j.Mark()
					stranded := false
					for i := 0; i < 1+rng.Intn(8); i++ {
						if rng.Intn(5) == 0 {
							// Nested mark: a sub-sequence the statement
							// may undo again before it ends.
							inner := j.Mark()
							for k := 0; k < 1+rng.Intn(3); k++ {
								op()
							}
							if rng.Intn(2) == 0 {
								j.RollbackTo(inner)
							}
						} else {
							op()
						}
						stranded = stranded || g.Validate() != nil
					}
					if stranded && rng.Intn(2) == 0 {
						// Repair every stranded relationship before the
						// statement ends.
						for _, id := range danglingRels(g) {
							g.DeleteRel(id)
						}
					}
					want, got := g.Validate(), j.ValidateSince(mark)
					if errText(got) != errText(want) {
						t.Fatalf("%s: ValidateSince(%d) = %v, Validate = %v", ctx, mark, got, want)
					}
					boundaries++
					if want != nil {
						failures++
						j.RollbackTo(mark)
						if err := g.Validate(); err != nil {
							t.Fatalf("%s: statement rollback left %v", ctx, err)
						}
						if err := j.ValidateSince(mark); err != nil {
							t.Fatalf("%s: ValidateSince after rollback: %v", ctx, err)
						}
					} else if stranded {
						repaired++
					}
				}

				if rng.Intn(4) == 0 {
					w.Rollback()
				} else {
					w.Commit()
				}
				if pin != nil {
					pin.Release()
				}
				snap := s.Acquire()
				if err := snap.Graph().Validate(); err != nil {
					t.Fatalf("seed=%d mode=%s txn=%d: published epoch invalid: %v", seed, mode, txn, err)
				}
				snap.Release()
			}
		}
	}
	// The property must have been exercised on both outcomes, and on
	// statements that stranded relationships and repaired them.
	t.Logf("%d boundaries, %d failing, %d stranded-and-repaired", boundaries, failures, repaired)
	if failures == 0 || repaired == 0 || failures == boundaries {
		t.Fatalf("degenerate run: %d boundaries, %d failing, %d stranded-and-repaired", boundaries, failures, repaired)
	}
}
