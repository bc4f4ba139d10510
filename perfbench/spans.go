package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side. Spans of one operation share Trace, the id of the
// operation's root span; Parent is 0 for a root.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Trace  int                `json:"trace"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// spans keeps a traced run's spans in memory; write dumps them when the run
// ends. A nil *spans (the untraced run) records nothing.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	all   []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (s *spans) start(name string, parent int) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.all) + 1
	trace := id
	if parent > 0 {
		trace = s.all[parent-1].Trace
	}
	s.all = append(s.all, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: time.Since(s.epoch).Nanoseconds()})
	return id
}

func (s *spans) end(id int) { s.endWith(id, nil) }

// endWith closes a span, attaching counts measured inside it.
func (s *spans) endWith(id int, attrs map[string]float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.all[id-1].End = time.Since(s.epoch).Nanoseconds()
	s.all[id-1].Attrs = attrs
}

func (s *spans) write(path string, meta map[string]any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(map[string]any{"meta": meta, "spans": s.all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
