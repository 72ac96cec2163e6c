package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one operation share Trace; Parent is
// the ID of the enclosing span (0 for an operation's root span).
type span struct {
	Trace   string           `json:"trace"`
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Name    string           `json:"name"`
	StartUS float64          `json:"start_us"`
	DurUS   float64          `json:"dur_us"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`

	start time.Duration
}

// spanLog keeps a run's spans in memory until write.
type spanLog struct {
	t0    time.Time
	spans []span
}

// open starts a span and returns its index; close it with end.
func (l *spanLog) open(trace string, parent int, name string) int {
	if l.t0.IsZero() {
		l.t0 = time.Now()
	}
	start := time.Since(l.t0)
	l.spans = append(l.spans, span{
		Trace:   trace,
		ID:      len(l.spans) + 1,
		Parent:  parent,
		Name:    name,
		StartUS: us(start),
		start:   start,
	})
	return len(l.spans)
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int, attrs map[string]int64) time.Duration {
	s := &l.spans[id-1]
	d := time.Since(l.t0) - s.start
	s.DurUS = us(d)
	s.Attrs = attrs
	return d
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	logf("%d spans written to %s", len(l.spans), path)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
