// Package scenario is the declarative traffic harness: it turns a JSON
// workload spec — named client classes with rate fractions and arrival
// processes, clock-skew jitter, one fault schedule, one seed — into a
// composable event-stream source over workload.Generator, and executes
// that stream through the full pipeline (Scribe daemons → aggregators →
// staging → log mover → warehouse, with the realtime counters tapping
// ingestion) while injecting the scheduled faults.
//
// The paper's infrastructure existed to survive real traffic shapes:
// flash crowds on one namespace subtree, a datacenter's daemons going
// dark and replaying their spools, consumers that fall behind, a counter
// node dying. Here each shape is data: one "faults" list of {kind,
// subject, start_minute, end_minute, magnitude} entries, the ground truth
// of what went wrong when. A spec file plus a seed reproduces the same
// event stream byte for byte, cmd/scenariogrid runs a (scenario × config)
// experiment matrix emitting one machine-readable JSON per cell, and CI's
// scenario-matrix job fails on any cell whose declared invariants fail —
// reconcile-exact after backfill, exactly-once delivery, nonzero spill.
//
// The pieces compose:
//
//   - Spec (this file): the parsed, validated spec. Parse and Load
//     return typed errors (ErrBadField, ErrBadFractions,
//     ErrUnknownArrival) so harnesses can distinguish a malformed spec
//     from an execution failure.
//   - arrival.go: poisson / gamma / uniform inter-arrival samplers that
//     re-time each client class's session starts.
//   - stream.go: Spec.EventStream builds the source — per-class
//     generators merged by session start, then the flash-crowd and
//     clock-skew transforms, each a Stream → Stream function.
//   - run.go: Run drives a stream through a multi-region Scribe topology
//     with the other faults applied by one rule (faultSchedule), seals
//     and moves every hour, and returns a Result with telemetry and the
//     spec's invariant verdicts.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Typed spec errors. Every parse/validation failure wraps one of these,
// so callers can errors.Is their way to the class of mistake without
// string matching.
var (
	// ErrBadField marks a field with an invalid or missing value, or a
	// field the schema does not define (a typo'd key fails parsing
	// instead of silently doing nothing).
	ErrBadField = errors.New("scenario: bad spec field")
	// ErrBadFractions marks client rate fractions that do not sum to 1.
	ErrBadFractions = errors.New("scenario: client rate fractions must sum to 1")
	// ErrUnknownArrival marks an arrival process the harness does not
	// implement.
	ErrUnknownArrival = errors.New("scenario: unknown arrival process")
)

// Arrival process names accepted in ClientClass.Arrival.Process.
const (
	ArrivalPoisson = "poisson"
	ArrivalGamma   = "gamma"
	ArrivalUniform = "uniform"
)

// Arrival selects the inter-arrival process that spaces a client class's
// session starts across the scenario window.
type Arrival struct {
	// Process is one of poisson (memoryless), gamma (bursty for CV > 1,
	// regular for CV < 1), or uniform. Empty defaults to poisson.
	Process string `json:"process"`
	// CV is the coefficient of variation for the gamma process; ignored
	// by the others. Defaults to 2 (bursty).
	CV float64 `json:"cv,omitempty"`
}

// ClientClass is one named slice of the traffic: a fraction of the
// scenario's sessions with its own arrival process and session shape.
type ClientClass struct {
	// ID names the class; every event it generates carries
	// Details["traffic_class"] = ID.
	ID string `json:"id"`
	// RateFraction is this class's share of Spec.TotalSessions. The
	// fractions across all classes must sum to 1.
	RateFraction float64 `json:"rate_fraction"`
	// Arrival spaces the class's session starts.
	Arrival Arrival `json:"arrival"`
	// LoggedOutFraction of the class's sessions are anonymous (cookie
	// only); of those, SignupFraction walk the signup funnel. Defaults
	// 0.3 and 0.5.
	LoggedOutFraction *float64 `json:"logged_out_fraction,omitempty"`
	SignupFraction    *float64 `json:"signup_fraction,omitempty"`
	// MeanPageVisits controls session length; 0 takes the workload
	// default.
	MeanPageVisits int `json:"mean_page_visits,omitempty"`
}

// Fault kinds accepted in Fault.Kind.
const (
	FaultFlashCrowd   = "flash_crowd"
	FaultOutage       = "outage"
	FaultSlowConsumer = "slow_consumer"
	FaultNodeCrash    = "node_crash"
)

// FaultKinds lists every kind a Fault may name.
var FaultKinds = []string{FaultFlashCrowd, FaultOutage, FaultSlowConsumer, FaultNodeCrash}

// Fault is one entry of the fault schedule: Kind acting on Subject for the
// minutes [StartMinute, EndMinute) of the day. Windows close inside the
// duration, so spools replay and hints drain before the day seals.
//
//   - flash_crowd: each base event under the Subject subtree ("web:home")
//     inside the window is followed by Magnitude-1 (Magnitude >= 2)
//     synthetic crowd events, anonymous sessions jittered across the window
//     and tagged Details["crowd"] = "1".
//   - outage: sends to region Subject's aggregators fail, its daemons
//     spool, and the spools replay when the window closes (the backfill).
//   - slow_consumer: Subject is empty; the realtime counter's drains sleep
//     Magnitude ms before each batch, and its queues are two batches deep.
//   - node_crash: cluster node Subject ("1") crashes when the window opens
//     and restarts when it closes.
type Fault struct {
	Kind        string `json:"kind"`
	Subject     string `json:"subject,omitempty"`
	StartMinute int    `json:"start_minute"`
	EndMinute   int    `json:"end_minute"`
	Magnitude   int    `json:"magnitude,omitempty"`
}

// covers reports whether minute m of the day falls inside the window.
func (f *Fault) covers(m int) bool { return f.StartMinute <= m && m < f.EndMinute }

// ClusterSpec stands up a replicated realtime cluster next to the
// single tapped counter: every aggregator batch fans into both, the
// cluster is scatter-gather probed through the day, and the cell gains
// the cluster's reconcile verdict and handoff/detector counters. A
// node_crash fault names a node of [0, Nodes).
type ClusterSpec struct {
	// Nodes is the node count (2..16). ReplicationFactor defaults to 2,
	// Partitions to 16.
	Nodes             int `json:"nodes"`
	ReplicationFactor int `json:"replication_factor,omitempty"`
	Partitions        int `json:"partitions,omitempty"`
}

// Invariants are the per-cell assertions a scenario must satisfy; Run
// evaluates them into Result.Invariants and Result.OK. Zero values are
// "not asserted".
type Invariants struct {
	// ReconcileExact requires the realtime counters to agree exactly
	// with the batch rollup job over the scenario's warehouse day —
	// after every outage has backfilled.
	ReconcileExact bool `json:"reconcile_exact,omitempty"`
	// ExactlyOnce requires every event accepted by a daemon to land in
	// the warehouse exactly once: equal counts and equal order-independent
	// digests of the two sides (Result.AcceptedDigest, WarehouseDigest).
	ExactlyOnce bool `json:"exactly_once,omitempty"`
	// RequireBackfill requires the outage machinery to have actually
	// engaged: send failures happened, and every spool drained by the
	// end of the day.
	RequireBackfill bool `json:"require_backfill,omitempty"`
	// RequireSpill requires the cell's budgeted rollup job to have
	// spilled (nonzero dataflow spill telemetry).
	RequireSpill bool `json:"require_spill,omitempty"`
	// MinEvents / MinCrowdEvents / MinSendFailures / MinQueueFullWaits
	// are lower bounds on the corresponding Result fields.
	MinEvents         int64 `json:"min_events,omitempty"`
	MinCrowdEvents    int64 `json:"min_crowd_events,omitempty"`
	MinSendFailures   int64 `json:"min_send_failures,omitempty"`
	MinQueueFullWaits int64 `json:"min_queue_full_waits,omitempty"`
	// RequireHandoff requires the cluster fault machinery to have fully
	// engaged: writes were hinted, every hint replayed, the cluster
	// drained, and its scatter-gathered day reconciles exactly with the
	// batch rollups. Needs Cluster and at least one node_crash fault.
	RequireHandoff bool `json:"require_handoff,omitempty"`
	// MinDegradedQueries is a lower bound on scatter probes that were
	// answered degraded (served around a dead or failing replica).
	MinDegradedQueries int64 `json:"min_degraded_queries,omitempty"`
}

// Spec is one parsed scenario. Build it with Parse or Load — both
// validate — not by hand.
type Spec struct {
	// Name identifies the scenario in cell filenames and reports.
	Name string `json:"name"`
	// Seed drives every random draw; same spec + same seed = identical
	// event stream. Defaults to 2012.
	Seed int64 `json:"seed,omitempty"`
	// Day is the UTC day the traffic falls into, "YYYY-MM-DD". Defaults
	// to 2012-08-21 (the repo's shared experiment day).
	Day string `json:"day,omitempty"`
	// DurationMinutes is the active window sessions start within;
	// defaults to 1320 (22h), leaving slack so sessions cannot spill
	// past midnight.
	DurationMinutes int `json:"duration_minutes,omitempty"`
	// TotalSessions across all client classes. Defaults to 200.
	TotalSessions int `json:"total_sessions,omitempty"`
	// Regions are the datacenters traffic is routed across (by session
	// hash). Defaults to ["east", "west"].
	Regions []string `json:"regions,omitempty"`
	// ClockSkewMs bounds the per-client clock skew: each session's
	// client timestamps shift by a stable offset in [-skew, +skew] ms.
	ClockSkewMs int64 `json:"clock_skew_ms,omitempty"`

	Clients    []ClientClass `json:"clients"`
	Cluster    *ClusterSpec  `json:"cluster,omitempty"`
	Faults     []Fault       `json:"faults,omitempty"`
	Invariants Invariants    `json:"invariants,omitempty"`

	day time.Time // parsed Day
}

// badField wraps ErrBadField with the offending field and reason.
func badField(field, reason string) error {
	return fmt.Errorf("%w: %s: %s", ErrBadField, field, reason)
}

// Parse decodes and validates a spec. Unknown keys, invalid values,
// fraction sums, and unknown arrival processes all fail with their typed
// error.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadField, err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// validate applies defaults and checks every field, accumulating typed
// errors.
func (s *Spec) validate() error {
	if s.Name == "" {
		return badField("name", "required")
	}
	if s.Seed == 0 {
		s.Seed = 2012
	}
	if s.Day == "" {
		s.Day = "2012-08-21"
	}
	day, err := time.Parse("2006-01-02", s.Day)
	if err != nil {
		return badField("day", fmt.Sprintf("want YYYY-MM-DD, got %q", s.Day))
	}
	s.day = day.UTC()
	if s.DurationMinutes == 0 {
		s.DurationMinutes = 22 * 60
	}
	if s.DurationMinutes < 60 || s.DurationMinutes > 23*60 {
		return badField("duration_minutes", fmt.Sprintf("want 60..1380, got %d", s.DurationMinutes))
	}
	if s.TotalSessions == 0 {
		s.TotalSessions = 200
	}
	if s.TotalSessions < len(s.Clients) {
		return badField("total_sessions", fmt.Sprintf("want >= %d (one session per class), got %d", len(s.Clients), s.TotalSessions))
	}
	if len(s.Regions) == 0 {
		s.Regions = []string{"east", "west"}
	}
	regionSet := map[string]bool{}
	for _, r := range s.Regions {
		if r == "" {
			return badField("regions", "empty region name")
		}
		if regionSet[r] {
			return badField("regions", "duplicate region "+r)
		}
		regionSet[r] = true
	}
	if s.ClockSkewMs < 0 {
		return badField("clock_skew_ms", "must be >= 0")
	}

	if len(s.Clients) == 0 {
		return badField("clients", "at least one client class required")
	}
	sum := 0.0
	seen := map[string]bool{}
	for i := range s.Clients {
		c := &s.Clients[i]
		field := fmt.Sprintf("clients[%d]", i)
		if c.ID == "" {
			return badField(field+".id", "required")
		}
		if seen[c.ID] {
			return badField(field+".id", "duplicate class id "+c.ID)
		}
		seen[c.ID] = true
		if c.RateFraction <= 0 || c.RateFraction > 1 {
			return badField(field+".rate_fraction", fmt.Sprintf("want (0, 1], got %g", c.RateFraction))
		}
		sum += c.RateFraction
		switch c.Arrival.Process {
		case "":
			c.Arrival.Process = ArrivalPoisson
		case ArrivalPoisson, ArrivalUniform:
		case ArrivalGamma:
			if c.Arrival.CV == 0 {
				c.Arrival.CV = 2
			}
			if c.Arrival.CV <= 0 {
				return badField(field+".arrival.cv", fmt.Sprintf("want > 0, got %g", c.Arrival.CV))
			}
		default:
			return fmt.Errorf("%w: %s.arrival.process: %q", ErrUnknownArrival, field, c.Arrival.Process)
		}
		if c.LoggedOutFraction != nil && (*c.LoggedOutFraction < 0 || *c.LoggedOutFraction > 1) {
			return badField(field+".logged_out_fraction", "want [0, 1]")
		}
		if c.SignupFraction != nil && (*c.SignupFraction < 0 || *c.SignupFraction > 1) {
			return badField(field+".signup_fraction", "want [0, 1]")
		}
		if c.MeanPageVisits < 0 {
			return badField(field+".mean_page_visits", "must be >= 0")
		}
	}
	if math.Abs(sum-1) > 1e-3 {
		return fmt.Errorf("%w: got %.4f", ErrBadFractions, sum)
	}

	if cs := s.Cluster; cs != nil {
		if cs.Nodes < 2 || cs.Nodes > 16 {
			return badField("cluster.nodes", fmt.Sprintf("want 2..16, got %d", cs.Nodes))
		}
		if cs.ReplicationFactor == 0 {
			cs.ReplicationFactor = 2
		}
		if cs.ReplicationFactor < 1 || cs.ReplicationFactor > cs.Nodes {
			return badField("cluster.replication_factor", fmt.Sprintf("want 1..%d, got %d", cs.Nodes, cs.ReplicationFactor))
		}
		if cs.Partitions == 0 {
			cs.Partitions = 16
		}
		if cs.Partitions < 1 || cs.Partitions > 64 {
			return badField("cluster.partitions", fmt.Sprintf("want 1..64, got %d", cs.Partitions))
		}
	}
	for i, f := range s.Faults {
		field := fmt.Sprintf("faults[%d]", i)
		if f.StartMinute < 0 || f.EndMinute <= f.StartMinute || f.EndMinute > s.DurationMinutes {
			return badField(field, fmt.Sprintf("window [%d, %d) must be ordered and within 0..%d",
				f.StartMinute, f.EndMinute, s.DurationMinutes))
		}
		if key, reason := s.checkFault(&f, regionSet); key != "" {
			return badField(field+"."+key, reason)
		}
	}
	if s.Invariants.RequireHandoff && !s.hasFault(FaultNodeCrash) {
		return badField("invariants.require_handoff", "requires a node_crash fault")
	}
	return nil
}

// checkFault is the per-kind half of a fault's validation: what its
// subject names and what its magnitude means. It returns the offending key
// and why, or "" when the fault is well formed.
func (s *Spec) checkFault(f *Fault, regions map[string]bool) (key, reason string) {
	subjectOK, want, minMagnitude := false, "", 0 // a minMagnitude of 0: the kind takes none
	switch f.Kind {
	case FaultFlashCrowd:
		subjectOK, want, minMagnitude = f.Subject != "", "a namespace subtree", 2
	case FaultSlowConsumer:
		subjectOK, want, minMagnitude = f.Subject == "", "empty (the realtime counter)", 1
	case FaultOutage:
		subjectOK, want = regions[f.Subject], "a region of regions"
	case FaultNodeCrash:
		// Subjects compare as text, so a node has one spelling: "1", not "01".
		n, err := strconv.Atoi(f.Subject)
		subjectOK = s.Cluster != nil && err == nil && n >= 0 && n < s.Cluster.Nodes && strconv.Itoa(n) == f.Subject
		want = "a node index of the declared cluster"
	default:
		return "kind", fmt.Sprintf("want one of %s, got %q", strings.Join(FaultKinds, ", "), f.Kind)
	}
	switch {
	case !subjectOK:
		return "subject", fmt.Sprintf("want %s, got %q", want, f.Subject)
	case minMagnitude == 0 && f.Magnitude != 0:
		return "magnitude", fmt.Sprintf("%s takes none, got %d", f.Kind, f.Magnitude)
	case f.Magnitude < minMagnitude:
		return "magnitude", fmt.Sprintf("want >= %d, got %d", minMagnitude, f.Magnitude)
	}
	return "", ""
}

// hasFault reports whether the schedule holds a fault of the kind.
func (s *Spec) hasFault(kind string) bool {
	return slices.ContainsFunc(s.Faults, func(f Fault) bool { return f.Kind == kind })
}

// DayStart returns the UTC midnight the scenario's traffic falls after.
func (s *Spec) DayStart() time.Time { return s.day }
