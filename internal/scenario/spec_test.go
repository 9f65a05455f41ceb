package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

const validSpec = `{
  "name": "t",
  "clients": [
    {"id": "web", "rate_fraction": 0.7, "arrival": {"process": "poisson"}},
    {"id": "mobile", "rate_fraction": 0.3, "arrival": {"process": "gamma", "cv": 2}}
  ]
}`

func TestParseValidSpecDefaults(t *testing.T) {
	s, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Seed != 2012 || s.Day != "2012-08-21" || s.TotalSessions != 200 {
		t.Fatalf("defaults not applied: seed=%d day=%q sessions=%d", s.Seed, s.Day, s.TotalSessions)
	}
	if s.DurationMinutes != 22*60 {
		t.Fatalf("duration default = %d", s.DurationMinutes)
	}
	if len(s.Regions) != 2 {
		t.Fatalf("regions default = %v", s.Regions)
	}
	if s.DayStart().IsZero() {
		t.Fatal("day not parsed")
	}
}

// TestParseTypedErrors is the golden-spec table: each malformed spec must
// fail with its typed error, reachable via errors.Is, so harnesses can
// tell a spec mistake from an execution failure without string matching.
// A fault case also names the key its error must point at, so each kind's
// entry is refused for its own reason, not for a neighbouring kind's.
func TestParseTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		json  string
		want  error
		field string // when set, the error names it
	}{
		{
			name: "unknown top-level key",
			json: `{"name": "t", "clientz": [], "clients": [{"id": "a", "rate_fraction": 1}]}`,
			want: ErrBadField,
		},
		{
			name: "missing name",
			json: `{"clients": [{"id": "a", "rate_fraction": 1}]}`,
			want: ErrBadField,
		},
		{
			name: "bad day",
			json: `{"name": "t", "day": "21/08/2012", "clients": [{"id": "a", "rate_fraction": 1}]}`,
			want: ErrBadField,
		},
		{
			name: "fractions sum below one",
			json: `{"name": "t", "clients": [
				{"id": "a", "rate_fraction": 0.5}, {"id": "b", "rate_fraction": 0.3}]}`,
			want: ErrBadFractions,
		},
		{
			name: "fractions sum above one",
			json: `{"name": "t", "clients": [
				{"id": "a", "rate_fraction": 0.8}, {"id": "b", "rate_fraction": 0.8}]}`,
			want: ErrBadFractions,
		},
		{
			name: "unknown arrival process",
			json: `{"name": "t", "clients": [
				{"id": "a", "rate_fraction": 1, "arrival": {"process": "pareto"}}]}`,
			want: ErrUnknownArrival,
		},
		{
			name: "duplicate class id",
			json: `{"name": "t", "clients": [
				{"id": "a", "rate_fraction": 0.5}, {"id": "a", "rate_fraction": 0.5}]}`,
			want: ErrBadField,
		},
		{
			name: "zero rate fraction",
			json: `{"name": "t", "clients": [{"id": "a", "rate_fraction": 0}]}`,
			want: ErrBadField,
		},
		{
			name:  "flash crowd window reversed",
			json:  withFaults(`{"kind": "flash_crowd", "subject": "web", "start_minute": 100, "end_minute": 50, "magnitude": 10}`),
			want:  ErrBadField,
			field: "faults[0]:",
		},
		{
			name:  "flash crowd multiplier too small",
			json:  withFaults(`{"kind": "flash_crowd", "subject": "web", "start_minute": 0, "end_minute": 60, "magnitude": 1}`),
			want:  ErrBadField,
			field: "faults[0].magnitude",
		},
		{
			name:  "outage region not declared",
			json:  withFaults(`{"kind": "outage", "subject": "mars", "start_minute": 0, "end_minute": 60}`),
			want:  ErrBadField,
			field: "faults[0].subject",
		},
		{
			name:  "slow consumer without delay",
			json:  withFaults(`{"kind": "slow_consumer", "start_minute": 0, "end_minute": 60, "magnitude": 0}`),
			want:  ErrBadField,
			field: "faults[0].magnitude",
		},
		{
			name:  "unknown fault kind",
			json:  withFaults(`{"kind": "meteor", "start_minute": 0, "end_minute": 60}`),
			want:  ErrBadField,
			field: "faults[0].kind",
		},
		{
			name:  "node crash subject not an index",
			json:  withCluster(`{"kind": "node_crash", "subject": "node-1", "start_minute": 0, "end_minute": 60}`),
			want:  ErrBadField,
			field: "faults[0].subject",
		},
		{
			name:  "node crash subject with a leading zero",
			json:  withCluster(`{"kind": "node_crash", "subject": "01", "start_minute": 0, "end_minute": 60}`),
			want:  ErrBadField,
			field: "faults[0].subject",
		},
		{
			name:  "node crash subject out of range",
			json:  withCluster(`{"kind": "node_crash", "subject": "3", "start_minute": 0, "end_minute": 60}`),
			want:  ErrBadField,
			field: "faults[0].subject",
		},
		{
			name:  "node crash without a cluster",
			json:  withFaults(`{"kind": "node_crash", "subject": "1", "start_minute": 0, "end_minute": 60}`),
			want:  ErrBadField,
			field: "faults[0].subject",
		},
		{
			name:  "outage with a magnitude",
			json:  withFaults(`{"kind": "outage", "subject": "east", "start_minute": 0, "end_minute": 60, "magnitude": 5}`),
			want:  ErrBadField,
			field: "faults[0].magnitude",
		},
		{
			name:  "fault window past duration",
			json:  withFaults(`{"kind": "outage", "subject": "east", "start_minute": 0, "end_minute": 1321}`),
			want:  ErrBadField,
			field: "faults[0]:",
		},
		{
			name: "unknown key inside a fault",
			json: withFaults(`{"kind": "flash_crowd", "subject": "web", "start_minute": 0, "end_minute": 60, "multiplier": 10}`),
			want: ErrBadField,
		},
		{
			name: "require handoff without a node crash",
			json: `{"name": "t", "clients": [{"id": "a", "rate_fraction": 1}],
				"cluster": {"nodes": 3}, "invariants": {"require_handoff": true}}`,
			want:  ErrBadField,
			field: "invariants.require_handoff",
		},
		{
			name:  "flash crowd without a subtree",
			json:  withFaults(`{"kind": "flash_crowd", "start_minute": 0, "end_minute": 60, "magnitude": 2}`),
			want:  ErrBadField,
			field: "faults[0].subject",
		},
		{
			name:  "slow consumer with a subject",
			json:  withFaults(`{"kind": "slow_consumer", "subject": "west", "start_minute": 0, "end_minute": 60, "magnitude": 5}`),
			want:  ErrBadField,
			field: "faults[0].subject",
		},
		{
			name:  "node crash with a magnitude",
			json:  withCluster(`{"kind": "node_crash", "subject": "1", "start_minute": 0, "end_minute": 60, "magnitude": 3}`),
			want:  ErrBadField,
			field: "faults[0].magnitude",
		},
		{
			name:  "empty fault window",
			json:  withCluster(`{"kind": "node_crash", "subject": "1", "start_minute": 60, "end_minute": 60}`),
			want:  ErrBadField,
			field: "faults[0]:",
		},
		// The retired per-shape keys are unknown now, so a spec written
		// for them fails instead of running with its faults dropped.
		{
			name: "retired flash_crowds key",
			json: `{"name": "t", "clients": [{"id": "a", "rate_fraction": 1}],
				"flash_crowds": [{"subtree": "web", "start_minute": 0, "end_minute": 60, "multiplier": 10}]}`,
			want: ErrBadField,
		},
		{
			name: "retired outages key",
			json: `{"name": "t", "clients": [{"id": "a", "rate_fraction": 1}],
				"outages": [{"region": "east", "start_minute": 0, "end_minute": 60}]}`,
			want: ErrBadField,
		},
		{
			name: "retired slow_consumer key",
			json: `{"name": "t", "clients": [{"id": "a", "rate_fraction": 1}],
				"slow_consumer": {"apply_delay_ms": 10, "queue_depth": 2}}`,
			want: ErrBadField,
		},
		{
			name: "retired node_crashes key",
			json: `{"name": "t", "clients": [{"id": "a", "rate_fraction": 1}], "cluster": {"nodes": 3},
				"node_crashes": [{"node": 1, "crash_minute": 0, "restart_minute": 60}]}`,
			want: ErrBadField,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatal("Parse accepted a malformed spec")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want errors.Is(%v)", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %v does not name %s", err, tc.field)
			}
		})
	}
}

// withFaults is a one-class spec over the default regions and duration
// (east and west, 1320 minutes) carrying the given fault entries; withCluster
// adds a 3-node cluster.
func withFaults(faults string) string {
	return `{"name": "t", "clients": [{"id": "a", "rate_fraction": 1}], "faults": [` + faults + `]}`
}

func withCluster(faults string) string {
	return `{"name": "t", "clients": [{"id": "a", "rate_fraction": 1}], "cluster": {"nodes": 3}, "faults": [` + faults + `]}`
}

// TestParseFaults: a well-formed entry of every kind parses as written.
func TestParseFaults(t *testing.T) {
	s, err := Parse([]byte(withCluster(`
		{"kind": "flash_crowd", "subject": "web:home", "start_minute": 600, "end_minute": 720, "magnitude": 80},
		{"kind": "outage", "subject": "west", "start_minute": 300, "end_minute": 420},
		{"kind": "slow_consumer", "start_minute": 0, "end_minute": 1320, "magnitude": 10},
		{"kind": "node_crash", "subject": "2", "start_minute": 360, "end_minute": 600}`)))
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: FaultFlashCrowd, Subject: "web:home", StartMinute: 600, EndMinute: 720, Magnitude: 80},
		{Kind: FaultOutage, Subject: "west", StartMinute: 300, EndMinute: 420},
		{Kind: FaultSlowConsumer, StartMinute: 0, EndMinute: 1320, Magnitude: 10},
		{Kind: FaultNodeCrash, Subject: "2", StartMinute: 360, EndMinute: 600},
	}
	if !reflect.DeepEqual(s.Faults, want) {
		t.Fatalf("faults = %+v, want %+v", s.Faults, want)
	}
	if len(want) != len(FaultKinds) {
		t.Fatalf("%d kinds parsed, FaultKinds lists %d", len(want), len(FaultKinds))
	}
}

func TestParseRejectsUnknownNestedKey(t *testing.T) {
	bad := strings.Replace(validSpec, `"cv": 2`, `"cv": 2, "burstiness": 9`, 1)
	_, err := Parse([]byte(bad))
	if !errors.Is(err, ErrBadField) {
		t.Fatalf("nested unknown key: error %v, want ErrBadField", err)
	}
}

func TestGammaCVDefault(t *testing.T) {
	s, err := Parse([]byte(`{"name": "t", "clients": [
		{"id": "a", "rate_fraction": 1, "arrival": {"process": "gamma"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Clients[0].Arrival.CV; got != 2 {
		t.Fatalf("gamma cv = %g, want 2", got)
	}
}
