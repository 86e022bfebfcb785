package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/value"
)

// span is one timed public call. Spans of one statement share op; parent
// indexes the caller's span in the same tracer (-1 for the statement).
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Class  string `json:"class"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

// tracer keeps one client's spans in memory; nothing is written until the
// run ends. Spans wrap calls from the benchmark into the layers, never
// code inside the engine.
type tracer struct {
	client   int
	base     time.Time
	ops      int64
	spans    []span
	profiled map[string]int
	opRows   int64 // operator rows PROFILE reported
	outRows  int64 // rows those statements returned
	// entry is, per statement, the end-to-end time minus core.exec in
	// µs: the public entry point's own cost.
	entry []float64
}

// profilesPerClass bounds how many statements of each read class one
// client also runs under PROFILE.
const profilesPerClass = 5

func (t *tracer) begin(name string, parent int, class string) int {
	t.spans = append(t.spans, span{Op: int64(t.client)<<40 | t.ops, Name: name, Class: class,
		Parent: parent, Start: time.Since(t.base).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) int64 {
	t.spans[i].End = time.Since(t.base).Nanoseconds()
	return t.spans[i].End - t.spans[i].Start
}

var profileRows = regexp.MustCompile(`rows=(\d+)`)

// do returns the traced path for one client: the statement's own path
// (cypherclient over the wire, or Engine.Parse plus
// Session.ExecuteWithTable on the stack) and, beside it, the probes that
// time one public call of each layer on the probe stack.
func (t *tracer) do(inst *instance, ex execer) doFunc {
	st := inst.probe
	return func(o *op) (rows [][]value.Value, c counts, e2e int64, err error) {
		t.ops++
		root := t.begin("op", -1, o.class)
		defer t.end(root)
		if inst.wire {
			s := t.begin("client.exec", root, o.class)
			rows, c, err = ex.exec(o.query, o.params)
			e2e = t.end(s)
			if err != nil {
				return
			}
		}
		s := t.begin("parser.parse", root, o.class)
		_, perr := parser.Parse(o.query)
		t.end(s)
		if perr != nil {
			return nil, counts{}, 0, perr
		}
		s = t.begin("core.parse", root, o.class)
		stmt, perr := st.eng.Parse(o.query)
		parseNs := t.end(s)
		if perr != nil {
			return nil, counts{}, 0, perr
		}
		vp, perr := convertParams(o.params)
		if perr != nil {
			return nil, counts{}, 0, perr
		}
		s = t.begin("graph.acquire", root, o.class)
		snap := st.store.Acquire()
		b := t.begin("plan.build", s, o.class)
		_, perr = st.eng.ExplainStatement(snap.Graph(), stmt, vp)
		t.end(b)
		snap.Release()
		t.end(s)
		if perr != nil {
			return nil, counts{}, 0, fmt.Errorf("explain: %w", perr)
		}
		s = t.begin("core.exec", root, o.class)
		res, perr := core.NewSession(st.eng, st.store).ExecuteWithTable(stmt, vp, nil)
		execNs := t.end(s)
		if perr != nil {
			return nil, counts{}, 0, perr
		}
		cols := res.Table.Columns()
		probeRows := tableRows(res)
		if !inst.wire {
			rows, c, e2e = probeRows, coreCounts(res.Stats), parseNs+execNs
		} else if pc := coreCounts(res.Stats); pc != c || len(probeRows) != len(rows) {
			return nil, counts{}, 0, fmt.Errorf("%w: twin returned %d rows and %+v, the server %d rows and %+v",
				errMismatch, len(probeRows), pc, len(rows), c)
		}
		t.entry = append(t.entry, float64(e2e-execNs)/1e3)
		if o.write || inst.readOnly {
			s = t.begin("graph.validate", root, o.class)
			snap := st.store.Acquire()
			verr := snap.Graph().Validate()
			snap.Release()
			t.end(s)
			if verr != nil {
				return nil, counts{}, 0, fmt.Errorf("validate: %w", verr)
			}
		}
		if !o.write {
			s = t.begin("plan.exec_p1", root, o.class)
			_, perr = core.NewSession(st.eng1, st.store).ExecuteWithTable(stmt, vp, nil)
			t.end(s)
			if perr != nil {
				return nil, counts{}, 0, fmt.Errorf("parallelism 1: %w", perr)
			}
			if t.profiled[o.class] < profilesPerClass {
				t.profiled[o.class]++
				s = t.begin("plan.profile", root, o.class)
				pres, text, perr := core.NewSession(st.eng, st.store).Profile(stmt, vp)
				t.end(s)
				if perr != nil {
					return nil, counts{}, 0, fmt.Errorf("profile: %w", perr)
				}
				for _, m := range profileRows.FindAllStringSubmatch(text, -1) {
					n, _ := strconv.ParseInt(m[1], 10, 64) // the regexp admits digits only
					t.opRows += n
				}
				t.outRows += int64(pres.Table.Len())
			}
		}
		if perr := t.codec(root, o, vp, cols, probeRows); perr != nil {
			return nil, counts{}, 0, fmt.Errorf("wire codec: %w", perr)
		}
		return rows, c, e2e, err
	}
}

// codec replays the statement's wire messages through the server's
// codec: it reads the run and pull requests and decodes the parameters,
// then encodes the result and writes the two success replies. The
// request bytes are prepared outside the span.
func (t *tracer) codec(parent int, o *op, vp map[string]value.Value, cols []string, rows [][]value.Value) error {
	params := make(map[string]server.WireValue, len(vp))
	for k, v := range vp {
		wv, err := server.EncodeValue(v)
		if err != nil {
			return err
		}
		params[k] = wv
	}
	var req, resp bytes.Buffer
	if err := server.WriteFrame(&req, &server.Message{Type: server.MsgRun, Query: o.query, Params: params}); err != nil {
		return err
	}
	if err := server.WriteFrame(&req, &server.Message{Type: server.MsgPull, N: 4096}); err != nil {
		return err
	}
	s := t.begin("wire.codec", parent, o.class)
	r := bytes.NewReader(req.Bytes())
	run, err := server.ReadFrame(r, server.DefaultMaxFrame)
	if err != nil {
		return err
	}
	for _, wv := range run.Params {
		if _, err := server.DecodeValue(wv); err != nil {
			return err
		}
	}
	if _, err := server.ReadFrame(r, server.DefaultMaxFrame); err != nil {
		return err
	}
	if err := server.WriteFrame(&resp, &server.Message{Type: server.MsgSuccess, Columns: cols}); err != nil {
		return err
	}
	wrows := make([][]server.WireValue, len(rows))
	for i, row := range rows {
		wrows[i] = make([]server.WireValue, len(row))
		for j, v := range row {
			if wrows[i][j], err = server.EncodeValue(v); err != nil {
				return err
			}
		}
	}
	if err := server.WriteFrame(&resp, &server.Message{Type: server.MsgSuccess, Rows: wrows}); err != nil {
		return err
	}
	t.end(s)
	t.spans[s].Bytes = req.Len() + resp.Len()
	return nil
}

// traced runs half the time untraced and half traced on the same
// instance, then derives the per-layer metrics from the spans and the
// counters around the untraced half.
func traced(rep *report, inst *instance, untraced []doFunc, wl workload, o options, total *tally) error {
	half := time.Duration(o.seconds) * time.Second / 2
	base := measure(inst, untraced, half)
	total.add(base.res.tally)
	if inst.syncProbe != nil {
		if err := inst.syncProbe(); err != nil {
			return fmt.Errorf("copy the served graph: %w", err)
		}
	}

	start := time.Now()
	tracers := make([]*tracer, len(inst.execs))
	dos := make([]doFunc, len(inst.execs))
	for i, ex := range inst.execs {
		tracers[i] = &tracer{client: i, base: start, profiled: map[string]int{}}
		dos[i] = tracers[i].do(inst, ex)
	}
	tw := closedLoop(inst.gens, dos, half, 1)
	total.add(tw.tally)

	checkpoint := inst.checkpoint
	if checkpoint == nil {
		// In memory there is no log to truncate; time what a checkpoint
		// writes: the committed snapshot, fsynced and renamed into place.
		path := filepath.Join(o.out, "data", rep.Workload+"-snapshot.json")
		defer os.Remove(path)
		checkpoint = func() error {
			snap := inst.probe.store.Acquire()
			defer snap.Release()
			return graph.AtomicWriteFile(path, snap.Graph().WriteJSON)
		}
	}
	var ckpt []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if err := checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		ckpt = append(ckpt, time.Since(t).Seconds()*1e3)
	}

	var (
		spans           []span
		entry           []float64
		opRows, outRows int64
	)
	for _, t := range tracers {
		spans = append(spans, t.spans...)
		entry = append(entry, t.entry...)
		opRows += t.opRows
		outRows += t.outRows
	}
	a := analyse(tracers)
	m := rep.Metrics
	us := func(name string, v float64, n int) { m[name] = metric{Value: v, Unit: "us", Samples: n} }

	for _, layer := range []string{"op", "parser", "core", "plan", "graph", "wire"} {
		us("self_us."+layer, a.self[layer]/1e3/float64(max(a.ops, 1)), a.ops)
	}
	us("entry.self_us", median(entry), len(entry))
	us("wire.codec_us_per_op", a.mean("wire.codec"), len(a.dur["wire.codec"]))
	m["wire.bytes_per_op"] = metric{Value: float64(a.bytes) / float64(max(len(a.dur["wire.codec"]), 1)), Unit: "bytes", Samples: len(a.dur["wire.codec"])}
	us("parser.parse_us", a.p50("parser.parse", ""), len(a.dur["parser.parse"]))

	dc := base.cache1
	dc.StmtHits -= base.cache0.StmtHits
	dc.StmtMisses -= base.cache0.StmtMisses
	dc.Plan.Hits -= base.cache0.Plan.Hits
	dc.Plan.Misses -= base.cache0.Plan.Misses
	dc.Plan.Invalidations -= base.cache0.Plan.Invalidations
	stmtBase := dc.StmtHits + dc.StmtMisses
	planBase := dc.Plan.Hits + dc.Plan.Misses + dc.Plan.Invalidations
	m["core.stmt_cache_hit_ratio"] = metric{Value: ratio(dc.StmtHits, stmtBase), Unit: "ratio", Samples: int(stmtBase)}
	m["match.plan_cache_hit_ratio"] = metric{Value: ratio(dc.Plan.Hits, planBase), Unit: "ratio", Samples: int(planBase)}
	m["match.plan_cache_invalidations"] = metric{Value: float64(dc.Plan.Invalidations), Unit: "count", Samples: int(planBase)}

	us("plan.build_us", a.p50("plan.build", ""), len(a.dur["plan.build"]))
	us("core.exec_us", a.p50("core.exec", ""), len(a.dur["core.exec"]))
	us("core.exec_tail_us", quantile(a.dur["core.exec"], wl.tail), len(a.dur["core.exec"]))
	validate := a.p50("graph.validate", "")
	m["graph.validate_ms"] = metric{Value: validate / 1e3, Unit: "ms", Samples: len(a.dur["graph.validate"])}
	share := 0.0
	if w := quantile(a.validatedExec, 0.5); w > 0 {
		share = validate / w
	}
	m["graph.validate_share"] = metric{Value: share, Unit: "ratio", Samples: len(a.validatedExec)}
	us("graph.acquire_us", quantile(a.acquireSelf, 0.5), len(a.acquireSelf))
	m["graph.wal_bytes_per_commit"] = metric{Value: base.disk.perCommit(), Unit: "bytes", Samples: int(base.disk.commits)}
	m["graph.checkpoints"] = metric{Value: float64(base.disk.checkpoints), Unit: "count"}
	m["graph.checkpoint_ms"] = metric{Value: median(ckpt), Unit: "ms", Samples: len(ckpt)}

	speedup := 0.0
	if a.readExec > 0 {
		speedup = a.readExecP1 / a.readExec
	}
	m["plan.par_speedup"] = metric{Value: speedup, Unit: "ratio", Samples: len(a.dur["plan.exec_p1"])}
	rpr := 0.0
	if outRows > 0 {
		rpr = float64(opRows) / float64(outRows)
	}
	m["plan.rows_per_result"] = metric{Value: rpr, Unit: "count", Samples: len(a.dur["plan.profile"])}

	ops := float64(max(len(base.res.samples), 1))
	m["go.allocs_per_op"] = metric{Value: float64(base.mem1.Mallocs-base.mem0.Mallocs) / ops, Unit: "count", Samples: len(base.res.samples)}
	m["go.alloc_bytes_per_op"] = metric{Value: float64(base.mem1.TotalAlloc-base.mem0.TotalAlloc) / ops, Unit: "bytes", Samples: len(base.res.samples)}
	m["go.gc_cycles"] = metric{Value: float64(base.mem1.NumGC - base.mem0.NumGC), Unit: "count"}
	m["go.gc_pause_ms"] = metric{Value: float64(base.mem1.PauseTotalNs-base.mem0.PauseTotalNs) / 1e6, Unit: "ms"}

	untracedP50 := quantile(latencies(base.res.samples, func(sample) bool { return true }), 0.5)
	tracedP50 := quantile(latencies(tw.samples, func(sample) bool { return true }), 0.5)
	over := 0.0
	if untracedP50 > 0 {
		over = (tracedP50/untracedP50 - 1) * 100
	}
	m["trace.overhead_pct"] = metric{Value: over, Unit: "%", Samples: len(tw.samples)}
	rep.Extra["e2e_p50_ms.untraced"] = metric{Value: untracedP50, Unit: "ms", Samples: len(base.res.samples)}
	rep.Extra["e2e_p50_ms.traced"] = metric{Value: tracedP50, Unit: "ms", Samples: len(tw.samples)}
	rep.Classes = a.classes()
	return writeSpans(spans, filepath.Join(o.out, rep.Workload+"-spans.jsonl"))
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// analysis is what the spans of a traced window add up to. Durations
// are in microseconds, self times in nanoseconds.
type analysis struct {
	ops           int
	dur           map[string][]float64 // by "name" and "name|class", sorted
	self          map[string]float64   // total self time by layer
	bytes         int64
	validatedExec []float64 // core.exec of the statements validated after, sorted
	acquireSelf   []float64 // graph.acquire minus plan.build, sorted
	readExec      float64   // total core.exec of reads
	readExecP1    float64   // total plan.exec_p1 of the same reads
}

func analyse(tracers []*tracer) *analysis {
	a := &analysis{dur: map[string][]float64{}, self: map[string]float64{}}
	for _, t := range tracers {
		a.ops += int(t.ops)
		covered := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				covered[s.Parent] += s.End - s.Start
			}
		}
		write := map[int64]bool{}
		for i, s := range t.spans {
			d := s.End - s.Start
			layer, _, _ := strings.Cut(s.Name, ".")
			a.self[layer] += float64(d - covered[i])
			x := float64(d) / 1e3
			a.dur[s.Name] = append(a.dur[s.Name], x)
			a.dur[s.Name+"|"+s.Class] = append(a.dur[s.Name+"|"+s.Class], x)
			a.bytes += int64(s.Bytes)
			switch s.Name {
			case "graph.acquire":
				a.acquireSelf = append(a.acquireSelf, float64(d-covered[i])/1e3)
			case "graph.validate":
				write[s.Op] = true
			}
		}
		// Spans of one statement are contiguous, with validate and the
		// Parallelism-1 run after exec.
		for i, s := range t.spans {
			if s.Name != "core.exec" {
				continue
			}
			x := float64(s.End-s.Start) / 1e3
			for j := i + 1; j < len(t.spans) && t.spans[j].Op == s.Op; j++ {
				if t.spans[j].Name == "graph.validate" {
					a.validatedExec = append(a.validatedExec, x)
				}
				if t.spans[j].Name == "plan.exec_p1" {
					a.readExec += x
					a.readExecP1 += float64(t.spans[j].End-t.spans[j].Start) / 1e3
				}
			}
		}
	}
	for _, xs := range a.dur {
		sort.Float64s(xs)
	}
	sort.Float64s(a.validatedExec)
	sort.Float64s(a.acquireSelf)
	return a
}

// p50 is the median duration in µs of span name, of one class or all.
func (a *analysis) p50(name, class string) float64 {
	if class != "" {
		name += "|" + class
	}
	return quantile(a.dur[name], 0.5)
}

func (a *analysis) mean(name string) float64 {
	xs := a.dur[name]
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// classes gives each statement class the median of each of its spans.
func (a *analysis) classes() map[string]any {
	out := map[string]any{}
	for key, xs := range a.dur {
		name, class, ok := strings.Cut(key, "|")
		if !ok {
			continue
		}
		c, _ := out[class].(map[string]any)
		if c == nil {
			c = map[string]any{}
			out[class] = c
		}
		c[name+"_p50_us"] = quantile(xs, 0.5)
		c[name+"_samples"] = len(xs)
	}
	return out
}

func writeSpans(spans []span, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
