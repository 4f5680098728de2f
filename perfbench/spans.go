package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call (no tracing runs inside the program).
type span struct {
	Name string `json:"name"`
	// Start and End are offsets from the tracer's origin.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int `json:"parent"`
	// Batch is the evaluation batch the span belongs to, -1 for none.
	Batch int `json:"batch"`
}

// tracer keeps spans in memory; write dumps them once the run has ended.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, batch int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), Parent: parent, Batch: batch})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.origin) }

// add records an already-measured interval as a span.
func (t *tracer) add(name string, start, end time.Time, parent, batch int) int {
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin),
		Parent: parent, Batch: batch})
	return len(t.spans) - 1
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// selfTime is span id's duration minus the part of its interval that its
// direct children cover. Overlapping children count once, and any part of a
// child outside the parent's interval is ignored.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ lo, hi time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	var covered time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, k := range kids {
		switch {
		case !open:
			curLo, curHi, open = k.lo, k.hi, true
		case k.lo <= curHi:
			curHi = max(curHi, k.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = k.lo, k.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return p.End - p.Start - covered
}

// write dumps the spans as JSON to path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
