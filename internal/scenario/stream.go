package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"unilog/internal/events"
	"unilog/internal/workload"
)

// Stream is a composable event-stream source: it pushes events into
// yield until the stream ends or yield returns an error (which aborts
// the stream and is returned). It is the same shape as
// workload.Generator.GenerateTo, so sinks — warehouse writers, Scribe
// daemons, slices — plug into either, and transforms are just functions
// from Stream to Stream.
type Stream func(yield func(*events.ClientEvent) error) error

// timedSession is one re-timed session: its new start and its events,
// shifted as a block so intra-session spacing (and therefore session
// boundaries) survive the re-timing.
type timedSession struct {
	startMs int64
	events  []events.ClientEvent
}

// EventStream builds the scenario's composed source: each client class
// generates its sessions through workload.Generator, the class's arrival
// process re-times the session starts across the scenario window, the
// classes merge by start time, and the flash-crowd and clock-skew
// transforms stack on top. The same spec and seed produce the identical
// stream, event for event.
//
// Class generation materializes one class's sessions at a time (the
// harness runs CI-scale days, not out-of-core corpus sizes); the
// transforms themselves are streaming.
func (s *Spec) EventStream() (Stream, error) {
	perClass := make([][]timedSession, len(s.Clients))
	counts := s.SessionCounts()
	for i := range s.Clients {
		sessions, err := s.classSessions(i, counts[i])
		if err != nil {
			return nil, fmt.Errorf("scenario %s: class %s: %w", s.Name, s.Clients[i].ID, err)
		}
		perClass[i] = sessions
	}
	base := mergeClasses(perClass)
	st := s.flashCrowdTransform(base)
	st = s.clockSkewTransform(st)
	return st, nil
}

// SessionCounts splits TotalSessions across the classes by rate
// fraction using cumulative rounding, so the counts sum to
// TotalSessions exactly and each class's share is within one session of
// fraction × total.
func (s *Spec) SessionCounts() []int {
	counts := make([]int, len(s.Clients))
	cum := 0.0
	prev := 0
	for i, c := range s.Clients {
		cum += c.RateFraction
		next := int(cum*float64(s.TotalSessions) + 0.5)
		if next > s.TotalSessions {
			next = s.TotalSessions
		}
		counts[i] = next - prev
		prev = next
	}
	return counts
}

// classSessions generates one class's sessions and re-times them by the
// class's arrival process.
func (s *Spec) classSessions(idx, nSessions int) ([]timedSession, error) {
	if nSessions == 0 {
		return nil, nil
	}
	c := &s.Clients[idx]
	cfg := s.classConfig(idx, nSessions)
	var sessions []timedSession
	var cur []events.ClientEvent
	lastSession := ""
	flush := func() {
		if len(cur) > 0 {
			sessions = append(sessions, timedSession{startMs: cur[0].Timestamp, events: cur})
			cur = nil
		}
	}
	_, err := workload.New(cfg).GenerateTo(func(e *events.ClientEvent) error {
		// Sessions are emitted contiguously in start order, and with
		// MaxSessionsPerUser=1 every session has a distinct cookie, so a
		// SessionID change is a session boundary.
		if e.SessionID != lastSession {
			flush()
			lastSession = e.SessionID
		}
		e.Details["traffic_class"] = c.ID
		cur = append(cur, *e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	flush()

	// Re-time: the k-th session (classes emit in start order) moves to
	// the k-th arrival offset; shifting the whole session preserves its
	// internal gaps.
	rng := rand.New(rand.NewSource(s.Seed + int64(idx)*7919 + 13))
	window := time.Duration(s.DurationMinutes) * time.Minute
	starts := sessionStarts(c.Arrival, len(sessions), window, rng)
	dayMs := s.day.UnixMilli()
	for k := range sessions {
		newStart := dayMs + starts[k].Milliseconds()
		delta := newStart - sessions[k].startMs
		sessions[k].startMs = newStart
		for j := range sessions[k].events {
			sessions[k].events[j].Timestamp += delta
		}
	}
	return sessions, nil
}

// classConfig derives the workload config for one class. One session per
// user (MaxSessionsPerUser=1) makes the class's session count exact, so
// rate fractions hold by construction.
func (s *Spec) classConfig(idx, nSessions int) workload.Config {
	c := &s.Clients[idx]
	loggedOutFrac := 0.3
	if c.LoggedOutFraction != nil {
		loggedOutFrac = *c.LoggedOutFraction
	}
	loggedOut := int(loggedOutFrac*float64(nSessions) + 0.5)
	if loggedOut > nSessions {
		loggedOut = nSessions
	}
	cfg := workload.DefaultConfig(s.day)
	cfg.Seed = s.Seed + int64(idx)*7919 + 1
	cfg.Users = nSessions - loggedOut
	cfg.MaxSessionsPerUser = 1
	cfg.LoggedOutSessions = loggedOut
	cfg.SignupFraction = 0.5
	if c.SignupFraction != nil {
		cfg.SignupFraction = *c.SignupFraction
	}
	if c.MeanPageVisits > 0 {
		cfg.MeanPageVisits = c.MeanPageVisits
	}
	return cfg
}

// mergeClasses interleaves the per-class session lists into one stream
// ordered by (session start, class index) — session-granularity
// interleaving, the same near-ordering workload.GenerateTo documents.
func mergeClasses(perClass [][]timedSession) Stream {
	return func(yield func(*events.ClientEvent) error) error {
		heads := make([]int, len(perClass))
		for {
			best := -1
			for i := range perClass {
				if heads[i] >= len(perClass[i]) {
					continue
				}
				if best < 0 || perClass[i][heads[i]].startMs < perClass[best][heads[best]].startMs {
					best = i
				}
			}
			if best < 0 {
				return nil
			}
			sess := &perClass[best][heads[best]]
			heads[best]++
			for j := range sess.events {
				if err := yield(&sess.events[j]); err != nil {
					return err
				}
			}
		}
	}
}

// flashCrowdTransform multiplies matching in-window events: after each
// base event that falls inside a flash_crowd fault's window and under its
// subject subtree, it emits Magnitude-1 synthetic crowd events — fresh
// anonymous sessions, jittered uniformly across the window, tagged
// Details["crowd"]="1". The base stream passes through untouched, so crowd
// windows never change the per-class traffic they amplify.
func (s *Spec) flashCrowdTransform(base Stream) Stream {
	if !s.hasFault(FaultFlashCrowd) {
		return base
	}
	dayMs := s.day.UnixMilli()
	return func(yield func(*events.ClientEvent) error) error {
		rng := rand.New(rand.NewSource(s.Seed ^ 0x5DEECE66D))
		crowdSeq := 0
		return base(func(e *events.ClientEvent) error {
			if err := yield(e); err != nil {
				return err
			}
			minute := int((e.Timestamp - dayMs) / 60_000)
			name := e.Name.String()
			for j := range s.Faults {
				fc := &s.Faults[j]
				if fc.Kind != FaultFlashCrowd || !fc.covers(minute) || !hasPrefixPath(name, fc.Subject) {
					continue
				}
				winStart := dayMs + int64(fc.StartMinute)*60_000
				winLen := int64(fc.EndMinute-fc.StartMinute) * 60_000
				for i := 1; i < fc.Magnitude; i++ {
					clone := *e
					crowdSeq++
					clone.UserID = 0
					clone.SessionID = fmt.Sprintf("crowd%010d%08x", crowdSeq, rng.Uint32())
					clone.Timestamp = winStart + rng.Int63n(winLen)
					details := make(map[string]string, len(e.Details)+1)
					for k, v := range e.Details {
						details[k] = v
					}
					details["crowd"] = "1"
					details["request_id"] = fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
					clone.Details = details
					if err := yield(&clone); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
}

// hasPrefixPath reports whether name is under the subtree prefix at a
// component boundary: "web:home" covers "web:home" and "web:home:...",
// not "web:homepage:...".
func hasPrefixPath(name, subtree string) bool {
	if len(name) < len(subtree) || name[:len(subtree)] != subtree {
		return false
	}
	return len(name) == len(subtree) || name[len(subtree)] == ':'
}

// clockSkewTransform shifts every event by its session's stable skew
// offset in [-ClockSkewMs, +ClockSkewMs], clamped into the day — the
// client whose phone clock runs half a second fast runs it fast all
// session.
func (s *Spec) clockSkewTransform(base Stream) Stream {
	if s.ClockSkewMs == 0 {
		return base
	}
	dayMs := s.day.UnixMilli()
	dayEndMs := dayMs + 24*60*60_000 - 1
	span := 2*s.ClockSkewMs + 1
	return func(yield func(*events.ClientEvent) error) error {
		return base(func(e *events.ClientEvent) error {
			offset := int64(events.Hash64(e.SessionID)%uint64(span)) - s.ClockSkewMs //nolint:gosec // span <= 2*skew+1 fits int64
			skewed := *e
			skewed.Timestamp += offset
			if skewed.Timestamp < dayMs {
				skewed.Timestamp = dayMs
			}
			if skewed.Timestamp > dayEndMs {
				skewed.Timestamp = dayEndMs
			}
			return yield(&skewed)
		})
	}
}
