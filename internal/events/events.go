// Package events implements the paper's core contribution: the unified
// "client events" log format (§3.2).
//
// Every loggable user or application action is named by a six-level
// hierarchical event name — client, page, section, component, element,
// action (Table 1) — and carried in a Thrift message with fixed semantics
// for the fields every analysis needs: initiator, user id, session id, IP
// address, timestamp, and free-form key-value details (Table 2).
//
// The hierarchical namespace makes events self-documenting and sliceable
// with simple patterns: web:home:mentions:* selects every action on the
// mentions timeline of the web client, *:profile_click selects profile
// clicks across all clients.
//
// A message can be read two ways. ClientEvent.Decode materialises it:
// the parsed name, the strings, the details map — what a scan that hands
// events to arbitrary code needs. Header.Decode fills the fixed fields
// from the same walk over the same bytes without allocating, the strings
// left as slices of the message, for the consumers that route or count on
// a few fields of every message (the realtime tap, the cluster router, the
// per-file name index) and for the dataflow row scan, which builds only the
// tuple columns a job projects. Header.DecodePairs is that plus the details
// as key/value slices of the message, for the chunk encoder and the
// row-file reader, which lay every field out as a column and need none of
// them as an object. All three are one switch over the field ids (walk) on
// the concrete thrift.CompactDecoder, whose field-header, string and varint
// reads take a short path for the one-byte forms nearly every field uses,
// and FuzzHeaderMatchesDecode holds them to the decoder they replaced.
//
// The name table (names.go) numbers each valid name once per process and
// digests it into a NameEntry, which the realtime counters, the cluster
// router and the rollup combiner count, route and expand by.
package events

import (
	"fmt"
	"slices"
	"strings"

	"unilog/internal/thrift"
)

// NumComponents is the depth of the event-name hierarchy (Table 1).
const NumComponents = 6

// Component indices into an event name, in hierarchy order.
const (
	CompClient = iota
	CompPage
	CompSection
	CompComponent
	CompElement
	CompAction
)

// ComponentNames gives the human name of each level, per Table 1.
var ComponentNames = [NumComponents]string{
	"client", "page", "section", "component", "element", "action",
}

// EventName is a six-level hierarchical event identifier, e.g.
// web:home:mentions:stream:avatar:profile_click. Interior components may be
// empty ("a page without sections"), but client and action are mandatory.
type EventName struct {
	Client    string
	Page      string
	Section   string
	Component string
	Element   string
	Action    string
}

// ParseName parses a colon-separated six-component event name. It returns
// an error unless the name has exactly six components and validates. A
// valid name allocates nothing: the components are substrings of s.
func ParseName(s string) (EventName, error) {
	var parts [NumComponents]string
	rest := s
	for i := 0; i < NumComponents-1; i++ {
		var ok bool
		if parts[i], rest, ok = strings.Cut(rest, ":"); !ok {
			return EventName{}, componentCountError(s)
		}
	}
	if strings.IndexByte(rest, ':') >= 0 {
		return EventName{}, componentCountError(s)
	}
	parts[NumComponents-1] = rest
	n := EventName{
		Client:    parts[CompClient],
		Page:      parts[CompPage],
		Section:   parts[CompSection],
		Component: parts[CompComponent],
		Element:   parts[CompElement],
		Action:    parts[CompAction],
	}
	if err := n.Validate(); err != nil {
		return EventName{}, err
	}
	return n, nil
}

func componentCountError(s string) error {
	return fmt.Errorf("events: name %q has %d components, want %d", s, strings.Count(s, ":")+1, NumComponents)
}

// MustParseName is ParseName for statically known names; it panics on error.
func MustParseName(s string) EventName {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String returns the canonical colon-joined form.
func (n EventName) String() string {
	return n.Client + ":" + n.Page + ":" + n.Section + ":" + n.Component + ":" + n.Element + ":" + n.Action
}

// At returns the i-th component (CompClient..CompAction).
func (n EventName) At(i int) string {
	switch i {
	case CompClient:
		return n.Client
	case CompPage:
		return n.Page
	case CompSection:
		return n.Section
	case CompComponent:
		return n.Component
	case CompElement:
		return n.Element
	case CompAction:
		return n.Action
	}
	panic(fmt.Sprintf("events: component index %d out of range", i))
}

// validComponent reports whether a single component uses only the blessed
// character set. The paper imposed "consistent, lowercased naming" to kill
// the camelCase/snake_case chaos of application-specific logging (§3.1);
// we enforce it mechanically.
func validComponent(c string) bool {
	for i := 0; i < len(c); i++ {
		b := c[i]
		switch {
		case b >= 'a' && b <= 'z':
		case b >= '0' && b <= '9':
		case b == '_' || b == '-':
		default:
			return false
		}
	}
	return true
}

// Validate enforces naming rules: client and action are non-empty; every
// component is lowercase alphanumeric with underscores or dashes.
func (n EventName) Validate() error {
	if n.Client == "" {
		return fmt.Errorf("events: %q: client component must not be empty", n.String())
	}
	if n.Action == "" {
		return fmt.Errorf("events: %q: action component must not be empty", n.String())
	}
	for i := 0; i < NumComponents; i++ {
		if c := n.At(i); !validComponent(c) {
			return fmt.Errorf("events: %q: invalid %s component %q (must be lowercase [a-z0-9_-])",
				n.String(), ComponentNames[i], c)
		}
	}
	return nil
}

// RollupLevel selects one of the paper's five automatic aggregation schemas
// (§3.2). Level 0 keeps the full name; each higher level wildcards one more
// interior component, ending with (client, *, *, *, *, action).
type RollupLevel int

// NumRollupLevels is the count of aggregation schemas in §3.2.
const NumRollupLevels = 5

// Rollup returns the name with the components masked by the given level
// replaced by "*". The masking order follows the paper exactly:
//
//	level 0: (client, page, section, component, element, action)
//	level 1: (client, page, section, component, *, action)
//	level 2: (client, page, section, *, *, action)
//	level 3: (client, page, *, *, *, action)
//	level 4: (client, *, *, *, *, action)
func (n EventName) Rollup(level RollupLevel) EventName {
	if level <= 0 {
		return n
	}
	out := n
	if level >= 1 {
		out.Element = "*"
	}
	if level >= 2 {
		out.Component = "*"
	}
	if level >= 3 {
		out.Section = "*"
	}
	if level >= 4 {
		out.Page = "*"
	}
	return out
}

// Pattern matches event names with per-component wildcards.
//
// A six-component pattern matches componentwise, with "*" matching any
// single component. Shorter patterns anchor: a leading "*" anchors the
// remaining parts at the tail (*:profile_click — profile clicks across all
// clients), otherwise the parts anchor at the head with the tail
// unconstrained (web:home:mentions:* — everything on the web mentions
// timeline).
type Pattern struct {
	raw   string
	parts []string
	// tailAnchored is true for patterns of the form *:<suffix...>.
	tailAnchored bool
}

// ParsePattern compiles a wildcard pattern.
func ParsePattern(s string) (Pattern, error) {
	if s == "" {
		return Pattern{}, fmt.Errorf("events: empty pattern")
	}
	parts := strings.Split(s, ":")
	if len(parts) > NumComponents {
		return Pattern{}, fmt.Errorf("events: pattern %q has %d components, max %d", s, len(parts), NumComponents)
	}
	for _, p := range parts {
		if p != "*" && !validComponent(p) {
			return Pattern{}, fmt.Errorf("events: pattern %q: invalid component %q", s, p)
		}
	}
	p := Pattern{raw: s, parts: parts}
	if len(parts) < NumComponents && parts[0] == "*" {
		p.tailAnchored = true
		p.parts = parts[1:]
	}
	return p, nil
}

// MustParsePattern is ParsePattern for statically known patterns.
func MustParsePattern(s string) Pattern {
	p, err := ParsePattern(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns the pattern source text.
func (p Pattern) String() string { return p.raw }

// Matches reports whether the pattern matches the event name.
func (p Pattern) Matches(n EventName) bool {
	if p.tailAnchored {
		off := NumComponents - len(p.parts)
		for i, part := range p.parts {
			if part != "*" && part != n.At(off+i) {
				return false
			}
		}
		return true
	}
	for i, part := range p.parts {
		if part != "*" && part != n.At(i) {
			return false
		}
	}
	return true
}

// PrunePrefix returns the longest literal head of the pattern as a
// colon-joined string prefix: every name the pattern matches starts with
// it, so a scan can skip any chunk whose name range excludes the prefix
// and still apply the exact match to what it reads. Tail-anchored
// patterns (*:suffix) and patterns opening with a wildcard have no usable
// head; ok is false and no name-based pruning is possible.
func (p Pattern) PrunePrefix() (prefix string, ok bool) {
	if p.tailAnchored {
		return "", false
	}
	n := 0
	for n < len(p.parts) && p.parts[n] != "*" {
		n++
	}
	if n == 0 {
		return "", false
	}
	return strings.Join(p.parts[:n], ":"), true
}

// MatchesString parses s and reports whether the pattern matches; malformed
// names never match.
func (p Pattern) MatchesString(s string) bool {
	n, err := ParseName(s)
	if err != nil {
		return false
	}
	return p.Matches(n)
}

// Initiator records who triggered the event: the client or server side, and
// whether a user action or the application itself did it (Table 2 —
// "{client, server} x {user, app}"). A timeline polling for new tweets
// without user intervention is a client/app event.
type Initiator int8

// Initiator values.
const (
	InitiatorClientUser Initiator = iota
	InitiatorClientApp
	InitiatorServerUser
	InitiatorServerApp
)

// String names the initiator quadrant.
func (i Initiator) String() string {
	switch i {
	case InitiatorClientUser:
		return "client:user"
	case InitiatorClientApp:
		return "client:app"
	case InitiatorServerUser:
		return "server:user"
	case InitiatorServerApp:
		return "server:app"
	}
	return fmt.Sprintf("initiator(%d)", int8(i))
}

// ClientEvent is the unified log message (Table 2). Every event carries
// user id, session id, and IP with identical semantics across all clients,
// so "a simple group-by suffices to accurately reconstruct user sessions".
type ClientEvent struct {
	Initiator Initiator
	Name      EventName
	// UserID is 0 for logged-out users.
	UserID int64
	// SessionID comes from a browser cookie or equivalent client identifier.
	SessionID string
	IP        string
	// Timestamp is milliseconds since the Unix epoch.
	Timestamp int64
	// Details holds event-specific key-value pairs, extensible by teams
	// without central coordination (e.g. the id of the profile clicked on,
	// or a search result's URL and rank).
	Details map[string]string
}

// LoggedIn reports whether the event was produced by an authenticated user.
func (e *ClientEvent) LoggedIn() bool { return e.UserID != 0 }

// Thrift field ids for ClientEvent. Ids are part of the wire contract and
// must never be reused.
const (
	fieldInitiator = 1
	fieldEventName = 2
	fieldUserID    = 3
	fieldSessionID = 4
	fieldIP        = 5
	fieldTimestamp = 6
	fieldDetails   = 7
)

// Encode writes the event as a Thrift struct.
func (e *ClientEvent) Encode(enc *thrift.CompactEncoder) {
	enc.WriteStructBegin()
	enc.WriteFieldBegin(thrift.BYTE, fieldInitiator)
	enc.WriteI8(int8(e.Initiator))
	enc.WriteFieldBegin(thrift.STRING, fieldEventName)
	enc.WriteString(e.Name.String())
	enc.WriteFieldBegin(thrift.I64, fieldUserID)
	enc.WriteI64(e.UserID)
	enc.WriteFieldBegin(thrift.STRING, fieldSessionID)
	enc.WriteString(e.SessionID)
	enc.WriteFieldBegin(thrift.STRING, fieldIP)
	enc.WriteString(e.IP)
	enc.WriteFieldBegin(thrift.I64, fieldTimestamp)
	enc.WriteI64(e.Timestamp)
	if len(e.Details) > 0 {
		enc.WriteFieldBegin(thrift.MAP, fieldDetails)
		enc.WriteMapBegin(thrift.STRING, thrift.STRING, len(e.Details))
		// Keys in sorted order, so an event marshals to the same bytes
		// every time; the common few sort on the stack.
		var buf [8]string
		keys := buf[:0]
		for k := range e.Details {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			enc.WriteString(k)
			enc.WriteString(e.Details[k])
		}
	}
	enc.WriteFieldStop()
	enc.WriteStructEnd()
}

// Decode reads the event from a Thrift struct, skipping unknown fields so
// newer producers remain readable. It is the header walk plus the
// allocations a decoded event needs: the parsed name, the strings, the
// details map.
func (e *ClientEvent) Decode(dec *thrift.CompactDecoder) error {
	var h Header
	var details map[string]string
	if err := walk(dec, &h, &details, nil); err != nil {
		return err
	}
	var name EventName
	if h.Name != nil { // a message without the field decodes to the zero name
		var err error
		if name, err = ParseName(string(h.Name)); err != nil {
			return err
		}
	}
	*e = ClientEvent{
		Initiator: h.Initiator,
		Name:      name,
		UserID:    h.UserID,
		SessionID: string(h.SessionID),
		IP:        string(h.IP),
		Timestamp: h.Timestamp,
		Details:   details,
	}
	return nil
}

// Header is the fixed-semantics part of a client event (Table 2 without
// the details) as it lies on the wire. Name, SessionID and IP alias the
// message they were read from: they are valid for as long as that buffer
// is, and a field the message does not carry is nil. Name is the raw
// colon-joined string, not yet validated — ParseName does that, and a
// consumer that has seen the same bytes before need not do it again.
//
// A Header is for consumers that route or count on a few fields of every
// message — the realtime tap, the cluster router, the per-file name index —
// where materialising a ClientEvent (six name components, three strings, a
// map) to read four of them was most of the cost of ingest.
type Header struct {
	Initiator Initiator
	Name      []byte
	UserID    int64
	SessionID []byte
	IP        []byte
	Timestamp int64
}

// LoggedIn reports whether the event was produced by an authenticated user.
func (h *Header) LoggedIn() bool { return h.UserID != 0 }

// Decode fills the header from one compact-protocol client event without
// allocating. It reads or skips every field of the message, the details map
// pair by pair, so a truncated, oversized or mistyped message fails with
// the same thrift error ClientEvent.Decode gives it. Reset dec to the next
// message and call Decode again to walk a batch with one decoder.
func (h *Header) Decode(dec *thrift.CompactDecoder) error {
	*h = Header{}
	return walk(dec, h, nil, nil)
}

// Pair is one details entry as it lies on the wire: K and V alias the
// message, as a Header's strings do.
type Pair struct{ K, V []byte }

// DecodePairs is Decode that also hands back the message's details, appended
// to pairs[:0] in wire order — pass the slice the last call returned and a
// steady-state walk allocates nothing. A key the map carries twice appears
// twice; ClientEvent.Decode keeps the last, and so must a consumer that wants
// the map's meaning. A message without details gives an empty slice.
func (h *Header) DecodePairs(dec *thrift.CompactDecoder, pairs []Pair) ([]Pair, error) {
	*h = Header{}
	pairs = pairs[:0]
	err := walk(dec, h, nil, &pairs)
	return pairs, err
}

// walk reads one client event struct from dec: the one place the field ids
// are switched on. Strings land in h as slices of dec's input. The details
// pairs are stored into *details and appended to *pairs, whichever is
// non-nil, and read past otherwise; a message that carries the field twice
// keeps the second map only. Known fields are read by id whatever wire type
// the header declared, as Decode always has.
func walk(dec *thrift.CompactDecoder, h *Header, details *map[string]string, pairs *[]Pair) error {
	if err := dec.ReadStructBegin(); err != nil {
		return err
	}
	for {
		ft, id, err := dec.ReadFieldBegin()
		if err != nil {
			return err
		}
		if ft == thrift.STOP {
			break
		}
		switch id {
		case fieldInitiator:
			var v int8
			v, err = dec.ReadI8()
			h.Initiator = Initiator(v)
		case fieldEventName:
			h.Name, err = dec.ReadBinary()
		case fieldUserID:
			h.UserID, err = dec.ReadI64()
		case fieldSessionID:
			h.SessionID, err = dec.ReadBinary()
		case fieldIP:
			h.IP, err = dec.ReadBinary()
		case fieldTimestamp:
			h.Timestamp, err = dec.ReadI64()
		case fieldDetails:
			var n int
			if _, _, n, err = dec.ReadMapBegin(); err != nil {
				return err
			}
			if details != nil {
				// n is at most the bytes left in the message (ReadMapBegin).
				*details = make(map[string]string, n)
			}
			if pairs != nil {
				*pairs = (*pairs)[:0]
			}
			for i := 0; i < n; i++ {
				var k, v []byte
				if k, err = dec.ReadBinary(); err != nil {
					return err
				}
				if v, err = dec.ReadBinary(); err != nil {
					return err
				}
				if details != nil {
					(*details)[string(k)] = string(v)
				}
				if pairs != nil {
					*pairs = append(*pairs, Pair{K: k, V: v})
				}
			}
		default:
			err = dec.Skip(ft)
		}
		if err != nil {
			return err
		}
	}
	return dec.ReadStructEnd()
}

// Marshal serializes the event with the compact protocol, the encoding used
// for client-event log files.
func (e *ClientEvent) Marshal() []byte { return thrift.EncodeCompact(e) }

// Unmarshal deserializes a compact-protocol event.
func (e *ClientEvent) Unmarshal(data []byte) error { return thrift.DecodeCompact(data, e) }

// Category is the Scribe category carrying all unified client events — the
// "single location for all client event messages" of §3.2.
const Category = "client_events"
