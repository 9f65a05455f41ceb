// Package scenario is the declarative traffic harness: it turns a JSON
// workload spec — named client classes with rate fractions and arrival
// processes, time-windowed flash-crowd multipliers, per-region outage +
// backfill windows, clock-skew jitter, a slow realtime consumer, one
// seed — into a composable event-stream source over workload.Generator,
// and executes that stream through the full pipeline (Scribe daemons →
// aggregators → staging → log mover → warehouse, with the realtime
// counters tapping ingestion) while injecting the spec's faults.
//
// The paper's infrastructure existed to survive real traffic shapes:
// flash crowds on one namespace subtree, a datacenter's daemons going
// dark and replaying their spools, consumers that fall behind. Here
// each such shape is data, not a hand-written experiment. A spec file
// plus a seed reproduces the same event stream byte for byte,
// cmd/scenariogrid runs a (scenario × config) experiment matrix emitting
// one machine-readable JSON per cell, and CI's scenario-matrix job fails
// on any cell whose declared invariants fail — reconcile-exact after
// backfill, exactly-once delivery, nonzero spill — on every push.
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
//   - run.go: Run drives a stream through a multi-region Scribe
//     topology with the spec's outages and slow-consumer delay applied,
//     seals and moves every hour, and returns a Result with telemetry
//     and the spec's invariant verdicts.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
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

// FlashCrowd is one "celebrity event": inside the window, every base
// event whose name starts with Subtree is multiplied — the original plus
// Multiplier-1 synthetic crowd sessions jittered across the window, each
// tagged Details["crowd"] = "1".
type FlashCrowd struct {
	// Subtree is the namespace prefix that spikes, e.g. "web:home".
	Subtree string `json:"subtree"`
	// StartMinute / EndMinute bound the window in minutes of the day.
	StartMinute int `json:"start_minute"`
	EndMinute   int `json:"end_minute"`
	// Multiplier is the traffic amplification inside the window (>= 2;
	// the paper-scale scenarios use 100-1000).
	Multiplier int `json:"multiplier"`
}

// Outage takes one region's Scribe daemons dark: deliveries to the
// region's aggregators fail for the window, entries pile up in the
// daemons' local spools, and the spools replay once the window closes —
// the backfill whose exactness Reconcile then proves.
type Outage struct {
	// Region names an entry of Spec.Regions.
	Region string `json:"region"`
	// StartMinute / EndMinute bound the dark window in minutes of the
	// day; the window must close before the scenario ends so the spool
	// gets to replay.
	StartMinute int `json:"start_minute"`
	EndMinute   int `json:"end_minute"`
}

// SlowConsumer makes the realtime counter a deliberately slow consumer:
// each shard drain sleeps ApplyDelayMs before applying a batch, and the
// shard queues shrink to QueueDepth, so ingestion backpressure becomes
// visible in realtime.queue.* telemetry.
type SlowConsumer struct {
	ApplyDelayMs int `json:"apply_delay_ms"`
	// QueueDepth is the per-shard queue capacity in batches while the
	// slow consumer is active. Defaults to 2.
	QueueDepth int `json:"queue_depth,omitempty"`
}

// ClusterSpec stands up a replicated realtime cluster next to the
// single tapped counter: every aggregator batch fans into both, the
// cluster is scatter-gather probed through the day, and the cell gains
// the cluster's reconcile verdict and handoff/detector counters. Node
// indexes in NodeCrashes refer to [0, Nodes).
type ClusterSpec struct {
	// Nodes is the node count (2..16). ReplicationFactor defaults to 2,
	// Partitions to 16.
	Nodes             int `json:"nodes"`
	ReplicationFactor int `json:"replication_factor,omitempty"`
	Partitions        int `json:"partitions,omitempty"`
}

// NodeCrash is one cluster fault window: the node crashes at
// CrashMinute and restarts at RestartMinute (minutes of the day, window
// inside the scenario duration so hint replay gets to finish before the
// day seals). With the default R=2 a single crashed node leaves every
// partition a live replica; overlapping windows on multiple nodes can
// take whole partitions dark and the probes then report partial.
type NodeCrash struct {
	Node          int `json:"node"`
	CrashMinute   int `json:"crash_minute"`
	RestartMinute int `json:"restart_minute"`
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
	// batch rollups. Needs Cluster and at least one NodeCrashes window.
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

	Clients      []ClientClass `json:"clients"`
	FlashCrowds  []FlashCrowd  `json:"flash_crowds,omitempty"`
	Outages      []Outage      `json:"outages,omitempty"`
	SlowConsumer *SlowConsumer `json:"slow_consumer,omitempty"`
	Cluster      *ClusterSpec  `json:"cluster,omitempty"`
	NodeCrashes  []NodeCrash   `json:"node_crashes,omitempty"`
	Invariants   Invariants    `json:"invariants,omitempty"`

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

	for i, fc := range s.FlashCrowds {
		field := fmt.Sprintf("flash_crowds[%d]", i)
		if fc.Subtree == "" {
			return badField(field+".subtree", "required")
		}
		if fc.Multiplier < 2 {
			return badField(field+".multiplier", fmt.Sprintf("want >= 2, got %d", fc.Multiplier))
		}
		if fc.StartMinute < 0 || fc.EndMinute <= fc.StartMinute || fc.EndMinute > s.DurationMinutes {
			return badField(field, fmt.Sprintf("window [%d, %d) must be ordered and within 0..%d",
				fc.StartMinute, fc.EndMinute, s.DurationMinutes))
		}
	}
	for i, o := range s.Outages {
		field := fmt.Sprintf("outages[%d]", i)
		if !regionSet[o.Region] {
			return badField(field+".region", fmt.Sprintf("%q is not in regions", o.Region))
		}
		if o.StartMinute < 0 || o.EndMinute <= o.StartMinute || o.EndMinute > s.DurationMinutes {
			return badField(field, fmt.Sprintf("window [%d, %d) must be ordered and within 0..%d",
				o.StartMinute, o.EndMinute, s.DurationMinutes))
		}
	}
	if sc := s.SlowConsumer; sc != nil {
		if sc.ApplyDelayMs <= 0 {
			return badField("slow_consumer.apply_delay_ms", "want > 0")
		}
		if sc.QueueDepth == 0 {
			sc.QueueDepth = 2
		}
		if sc.QueueDepth < 0 {
			return badField("slow_consumer.queue_depth", "must be >= 0")
		}
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
	if len(s.NodeCrashes) > 0 && s.Cluster == nil {
		return badField("node_crashes", "requires a cluster")
	}
	for i, nc := range s.NodeCrashes {
		field := fmt.Sprintf("node_crashes[%d]", i)
		if nc.Node < 0 || nc.Node >= s.Cluster.Nodes {
			return badField(field+".node", fmt.Sprintf("want 0..%d, got %d", s.Cluster.Nodes-1, nc.Node))
		}
		if nc.CrashMinute < 0 || nc.RestartMinute <= nc.CrashMinute || nc.RestartMinute > s.DurationMinutes {
			return badField(field, fmt.Sprintf("window [%d, %d) must be ordered and within 0..%d",
				nc.CrashMinute, nc.RestartMinute, s.DurationMinutes))
		}
	}
	if s.Invariants.RequireHandoff && (s.Cluster == nil || len(s.NodeCrashes) == 0) {
		return badField("invariants.require_handoff", "requires cluster and node_crashes")
	}
	return nil
}

// DayStart returns the UTC midnight the scenario's traffic falls after.
func (s *Spec) DayStart() time.Time { return s.day }
