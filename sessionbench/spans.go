package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into the program, kept in
// memory and written out when the run ends. Times are nanoseconds since
// the benchmark process started; parent is 0 for top-level spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Session numbers the session the span belongs to (0 = none).
	Session int   `json:"session"`
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// spanLog records the benchmark's own spans. It is used from one
// goroutine: the session hooks run on the goroutine that called Run.
type spanLog struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id.
func (l *spanLog) begin(name string, parent, session int) int {
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name, Session: session,
		StartNs: time.Since(l.t0).Nanoseconds(),
	})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	l.spans[id-1].EndNs = time.Since(l.t0).Nanoseconds()
}

// mark records a zero-length span: an instant such as a round hook.
func (l *spanLog) mark(name string, parent, session int) {
	l.end(l.begin(name, parent, session))
}

// write stores the spans as JSON lines, one span per line.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
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
