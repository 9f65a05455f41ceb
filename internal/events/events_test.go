package events

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"unilog/internal/thrift"
)

// The canonical example from §3.2 of the paper.
const paperExample = "web:home:mentions:stream:avatar:profile_click"

// TestEventNameComponents reproduces Table 1: the six-level decomposition.
func TestEventNameComponents(t *testing.T) {
	n, err := ParseName(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	want := EventName{
		Client: "web", Page: "home", Section: "mentions",
		Component: "stream", Element: "avatar", Action: "profile_click",
	}
	if n != want {
		t.Fatalf("ParseName = %+v, want %+v", n, want)
	}
	if n.String() != paperExample {
		t.Fatalf("String = %q", n.String())
	}
	for i, want := range []string{"web", "home", "mentions", "stream", "avatar", "profile_click"} {
		if n.At(i) != want {
			t.Errorf("At(%d) = %q, want %q", i, n.At(i), want)
		}
	}
}

func TestParseNameErrors(t *testing.T) {
	cases := []string{
		"",                          // empty
		"web:home",                  // too few components
		"a:b:c:d:e:f:g",             // too many
		"Web:home:m:s:a:click",      // uppercase (the dreaded camel_Snake)
		"web:home:m:s:a:",           // empty action
		":home:m:s:a:click",         // empty client
		"web:ho me:m:s:a:click",     // space
		"web:home:m:s:a:click.here", // bad char
	}
	for _, c := range cases {
		if _, err := ParseName(c); err == nil {
			t.Errorf("ParseName(%q) succeeded, want error", c)
		}
	}
}

// splitParseName is ParseName as it was written over strings.Split: the
// reference the cut loop must agree with, error text included.
func splitParseName(s string) (EventName, error) {
	parts := strings.Split(s, ":")
	if len(parts) != NumComponents {
		return EventName{}, fmt.Errorf("events: name %q has %d components, want %d", s, len(parts), NumComponents)
	}
	n := EventName{
		Client: parts[CompClient], Page: parts[CompPage], Section: parts[CompSection],
		Component: parts[CompComponent], Element: parts[CompElement], Action: parts[CompAction],
	}
	if err := n.Validate(); err != nil {
		return EventName{}, err
	}
	return n, nil
}

// TestParseNameMatchesSplitReference: names of 1 to 9 components (0 to 8
// colons) built from valid, empty, uppercase and otherwise invalid
// components parse to the same EventName, or fail with the same error
// text, as the strings.Split reference.
func TestParseNameMatchesSplitReference(t *testing.T) {
	comps := []string{"", "web", "home", "a1_b-c", "profile_click", "Web", "camelCase", "ho me", "x.y", "*"}
	rng := rand.New(rand.NewSource(29))
	cases := []string{"", ":", "::::::", ":::::", paperExample, strings.ToUpper(paperExample)}
	for colons := 0; colons <= 8; colons++ {
		for i := 0; i < 300; i++ {
			parts := make([]string, colons+1)
			for k := range parts {
				parts[k] = comps[rng.Intn(len(comps))]
			}
			cases = append(cases, strings.Join(parts, ":"))
		}
	}
	valid := 0
	for _, s := range cases {
		got, gotErr := ParseName(s)
		want, wantErr := splitParseName(s)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseName(%q) = %+v, %v; reference %+v, %v", s, got, gotErr, want, wantErr)
		}
		if gotErr == nil {
			valid++
		}
	}
	if valid == 0 {
		t.Fatal("no generated name was valid: the table tests only the error paths")
	}
}

// TestParseNameAllocatesNothing: a valid name parses into substrings of
// its input; the streaming taps and the row filter call this per event.
func TestParseNameAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseName(paperExample); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ParseName allocated %.1f times per valid name, want 0", allocs)
	}
}

func TestEmptyInteriorComponents(t *testing.T) {
	// "if a page doesn't have multiple sections, the section component is
	// simply empty" — interior components may be empty.
	n, err := ParseName("web:about::::view")
	if err != nil {
		t.Fatal(err)
	}
	if n.Section != "" || n.Component != "" || n.Element != "" {
		t.Fatalf("interior components = %+v", n)
	}
}

func TestRollupSchemas(t *testing.T) {
	n := MustParseName(paperExample)
	want := []string{
		"web:home:mentions:stream:avatar:profile_click",
		"web:home:mentions:stream:*:profile_click",
		"web:home:mentions:*:*:profile_click",
		"web:home:*:*:*:profile_click",
		"web:*:*:*:*:profile_click",
	}
	for lvl := 0; lvl < NumRollupLevels; lvl++ {
		if got := n.Rollup(RollupLevel(lvl)).String(); got != want[lvl] {
			t.Errorf("Rollup(%d) = %q, want %q", lvl, got, want[lvl])
		}
	}
}

func TestPatternMatching(t *testing.T) {
	n := MustParseName(paperExample)
	iphone := MustParseName("iphone:profile:tweets:stream:avatar:profile_click")
	other := MustParseName("web:home:retweets:stream:avatar:click")

	cases := []struct {
		pattern string
		name    EventName
		want    bool
	}{
		// §3.2: "all actions on the user's home mentions timeline on
		// twitter.com by considering web:home:mentions:*".
		{"web:home:mentions:*", n, true},
		{"web:home:mentions:*", other, false},
		// §3.2: "track profile clicks across all clients ... with
		// *:profile_click".
		{"*:profile_click", n, true},
		{"*:profile_click", iphone, true},
		{"*:profile_click", other, false},
		// Full six-component patterns match componentwise.
		{"web:home:mentions:stream:avatar:profile_click", n, true},
		{"web:home:*:stream:avatar:profile_click", n, true},
		{"web:home:*:stream:avatar:profile_click", other, false},
		// Prefix anchoring.
		{"web", n, true},
		{"iphone", n, false},
		{"web:home", other, true},
		// Tail anchoring with multiple components.
		{"*:avatar:profile_click", n, true},
		{"*:avatar:profile_click", iphone, true},
		{"*:avatar:click", n, false},
	}
	for _, c := range cases {
		p := MustParsePattern(c.pattern)
		if got := p.Matches(c.name); got != c.want {
			t.Errorf("Pattern(%q).Matches(%s) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
}

func TestPatternErrors(t *testing.T) {
	for _, s := range []string{"", "a:b:c:d:e:f:g", "WEB:*", "we b:*"} {
		if _, err := ParsePattern(s); err == nil {
			t.Errorf("ParsePattern(%q) succeeded", s)
		}
	}
}

func TestMatchesString(t *testing.T) {
	p := MustParsePattern("*:profile_click")
	if !p.MatchesString(paperExample) {
		t.Fatal("MatchesString(paperExample) = false")
	}
	if p.MatchesString("not-a-name") {
		t.Fatal("MatchesString(garbage) = true")
	}
}

// TestClientEventRoundTrip reproduces Table 2: the client event structure
// survives the Thrift round trip.
func TestClientEventRoundTrip(t *testing.T) {
	in := &ClientEvent{
		Initiator: InitiatorClientUser,
		Name:      MustParseName(paperExample),
		UserID:    12345,
		SessionID: "c0ffee-cookie",
		IP:        "10.1.2.3",
		Timestamp: 1345536000123,
		Details:   map[string]string{"profile_id": "678", "rank": "3"},
	}
	var fromCompact ClientEvent
	if err := fromCompact.Unmarshal(in.Marshal()); err != nil {
		t.Fatal(err)
	}
	assertEqualEvent(t, in, &fromCompact)
}

func assertEqualEvent(t *testing.T, want, got *ClientEvent) {
	t.Helper()
	if got.Initiator != want.Initiator || got.Name != want.Name || got.UserID != want.UserID ||
		got.SessionID != want.SessionID || got.IP != want.IP || got.Timestamp != want.Timestamp {
		t.Fatalf("scalar fields: got %+v, want %+v", got, want)
	}
	if len(got.Details) != len(want.Details) {
		t.Fatalf("details: got %v, want %v", got.Details, want.Details)
	}
	for k, v := range want.Details {
		if got.Details[k] != v {
			t.Fatalf("details[%q] = %q, want %q", k, got.Details[k], v)
		}
	}
}

func TestLoggedIn(t *testing.T) {
	e := &ClientEvent{UserID: 7}
	if !e.LoggedIn() {
		t.Fatal("UserID 7 not logged in")
	}
	e.UserID = 0
	if e.LoggedIn() {
		t.Fatal("UserID 0 logged in")
	}
}

func TestInitiatorString(t *testing.T) {
	want := map[Initiator]string{
		InitiatorClientUser: "client:user",
		InitiatorClientApp:  "client:app",
		InitiatorServerUser: "server:user",
		InitiatorServerApp:  "server:app",
	}
	for i, s := range want {
		if i.String() != s {
			t.Errorf("Initiator(%d).String() = %q, want %q", i, i.String(), s)
		}
	}
}

// TestPatternPrefixProperty: a prefix pattern built from the first k
// components of a name always matches that name.
func TestPatternPrefixProperty(t *testing.T) {
	f := func(a, b, c uint8, k uint8) bool {
		n := EventName{
			Client:    fmt.Sprintf("client%d", a%4),
			Page:      fmt.Sprintf("page%d", b%4),
			Section:   fmt.Sprintf("section%d", c%4),
			Component: "comp",
			Element:   "elem",
			Action:    "act",
		}
		kk := int(k%NumComponents) + 1
		parts := make([]string, kk)
		for i := 0; i < kk; i++ {
			parts[i] = n.At(i)
		}
		p, err := ParsePattern(strings.Join(parts, ":"))
		if err != nil {
			return false
		}
		return p.Matches(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripProperty: events with arbitrary scalar payloads survive the
// compact codec.
func TestRoundTripProperty(t *testing.T) {
	f := func(user int64, ts int64, sess string, ip string, init uint8) bool {
		in := &ClientEvent{
			Initiator: Initiator(init % 4),
			Name:      MustParseName(paperExample),
			UserID:    user,
			SessionID: sess,
			IP:        ip,
			Timestamp: ts,
		}
		var out ClientEvent
		if err := out.Unmarshal(in.Marshal()); err != nil {
			return false
		}
		return out.UserID == user && out.Timestamp == ts && out.SessionID == sess &&
			out.IP == ip && out.Initiator == in.Initiator
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsBadName(t *testing.T) {
	in := &ClientEvent{Name: EventName{Client: "web", Action: "click"}}
	data := in.Marshal()
	// Corrupt: encode an event whose name string is not parseable by
	// writing a raw struct with an invalid name.
	enc := thrift.NewCompactEncoder()
	enc.WriteStructBegin()
	enc.WriteFieldBegin(thrift.STRING, 2)
	enc.WriteString("NOT A NAME")
	enc.WriteFieldStop()
	enc.WriteStructEnd()
	var out ClientEvent
	if err := out.Unmarshal(enc.Bytes()); err == nil {
		t.Fatal("decode of invalid event name succeeded")
	}
	// The valid message still decodes.
	if err := out.Unmarshal(data); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrorMentionsComponent(t *testing.T) {
	n := EventName{Client: "web", Page: "Home", Action: "click"}
	err := n.Validate()
	if err == nil || !strings.Contains(err.Error(), "page") {
		t.Fatalf("err = %v, want mention of page component", err)
	}
	var invalid error = err
	if errors.Is(invalid, nil) {
		t.Fatal("unreachable")
	}
}

// TestMarshalDetailsSorted: an event marshals to the same bytes every time,
// whatever order the map hands its details in — its keys go on the wire
// sorted, past the few that sort on the stack too.
func TestMarshalDetailsSorted(t *testing.T) {
	for _, keys := range []int{2, 8, 9, 40} {
		e := &ClientEvent{Name: MustParseName(paperExample), Timestamp: 1, Details: map[string]string{}}
		for i := 0; i < keys; i++ {
			e.Details[fmt.Sprintf("k%03d", (i*37)%keys)] = fmt.Sprint(i)
		}
		first := e.Marshal()
		for i := 0; i < 50; i++ {
			if got := e.Marshal(); string(got) != string(first) {
				t.Fatalf("%d details: marshal %d wrote other bytes than the first", keys, i)
			}
		}
		var h Header
		dec := thrift.NewCompactDecoder(first)
		pairs, err := h.DecodePairs(dec, nil)
		if err != nil || len(pairs) != keys {
			t.Fatalf("%d details: decoded %d pairs (%v)", keys, len(pairs), err)
		}
		for i := 1; i < len(pairs); i++ {
			if string(pairs[i-1].K) >= string(pairs[i].K) {
				t.Fatalf("%d details: key %q after %q on the wire", keys, pairs[i].K, pairs[i-1].K)
			}
		}
	}
}
