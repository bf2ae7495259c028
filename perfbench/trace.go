package main

import (
	"sort"
	"sync"
	"time"
)

// spanID names one recorded span; 0 means "no parent".
type spanID int

// span is one timed call into a layer. Parent is logical: a replay span
// explains part of its parent's work and usually runs after the parent's
// call has returned, so a child need not lie inside its parent's
// interval.
type span struct {
	ID     spanID
	Parent spanID
	Req    int64 // request ID shared by every span of one traced query
	Name   string
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// start opens a span now and returns its ID; finish closes it.
func (r *recorder) start(parent spanID, req int64, name string) spanID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := spanID(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Now()})
	return id
}

// finish closes a span opened by start.
func (r *recorder) finish(id spanID) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// add records a span that has already ended and returns its ID.
func (r *recorder) add(parent spanID, req int64, name string, start, end time.Time) spanID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := spanID(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// time runs fn inside a span and returns the span's ID.
func (r *recorder) time(parent spanID, req int64, name string, fn func()) spanID {
	id := r.start(parent, req, name)
	fn()
	r.finish(id)
	return id
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// covered returns the total length of the union of the intervals.
func covered(ivs []span) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]span(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	var total time.Duration
	curS, curE := s[0].Start, s[0].End
	for _, iv := range s[1:] {
		if iv.Start.After(curE) {
			total += curE.Sub(curS)
			curS, curE = iv.Start, iv.End
			continue
		}
		if iv.End.After(curE) {
			curE = iv.End
		}
	}
	return total + curE.Sub(curS)
}

// selfTimes returns each span's self time: its duration minus the time
// its children's intervals cover. A root span's self time is the time no
// layer accounts for; selfTimes reports it under "unattributed". Keys are
// span names; values are summed over every span of that name. Because
// sibling spans are disjoint calls, the self times of one query's tree
// add up to its root's duration exactly.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[spanID][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		name := s.Name
		if s.Parent == 0 {
			name = "unattributed"
		}
		out[name] += s.dur() - covered(kids[s.ID])
	}
	return out
}

// totals returns the summed duration and count of spans per name.
func totals(spans []span) (map[string]time.Duration, map[string]int) {
	d := make(map[string]time.Duration)
	n := make(map[string]int)
	for _, s := range spans {
		d[s.Name] += s.dur()
		n[s.Name]++
	}
	return d, n
}
