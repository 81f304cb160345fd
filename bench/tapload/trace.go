package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the harness made into the program. Spans live in
// memory and are written out once, when the traced run ends. Parent is
// the id of the span that caused this one (0 for a root); Op groups the
// spans of one operation (0 for set-up work).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder collects spans from the harness's single driving goroutine. A
// nil recorder records nothing, which is how the untraced rounds run the
// same code.
type recorder struct {
	t0    time.Time
	spans []span
	op    int // op id stamped on spans begun from now on
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, StartNs: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].EndNs = int64(time.Since(r.t0))
}

// selfNs is a span's duration minus what its direct children cover.
func (r *recorder) selfNs(id int) int64 {
	s := r.spans[id-1]
	self := s.EndNs - s.StartNs
	for _, c := range r.spans {
		if c.Parent == id {
			self -= c.EndNs - c.StartNs
		}
	}
	return self
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
