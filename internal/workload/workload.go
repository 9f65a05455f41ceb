// Package workload generates deterministic synthetic Twitter-like traffic,
// standing in for the production logs the paper's infrastructure ingested
// (~100 TB/day; we cannot obtain them).
//
// The generator plants *known ground truth* so every analytics experiment
// verifies recovery of configured values rather than eyeballing noise:
//
//   - event popularity is Zipf-skewed (frequent events dominate, which is
//     what makes the frequency-ordered dictionary effective);
//   - each engagement feature (who-to-follow, search results, trends,
//     discover stories) has a configured click-through and follow-through
//     rate, recovered by analytics.TestCTRRecovery (§5.2);
//   - signup sessions walk a five-stage funnel with configured per-stage
//     continuation probabilities, recovered by
//     analytics.TestFunnelRecoversPlantedDropoff (§5.3);
//   - page navigation is Markovian, so n-gram models find real temporal
//     signal (§5.4, ngram.TestPerplexityDecreasesOnSessions);
//   - one event pair ("tweet expand" → "profile click") is planted as a
//     strong collocation (§5.4, colloc.TestCollocationRecovery);
//   - sessions per client and country, logged-in/out mix, and exact session
//     boundaries (>30-minute gaps) are all recorded in the returned Truth.
//
// All randomness flows from Config.Seed; identical configs produce
// byte-identical event streams.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"unilog/internal/events"
	"unilog/internal/geo"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
)

// Feature keys used in Config.CTR / Config.FTR and Truth maps.
const (
	FeatureWhoToFollow = "who_to_follow"
	FeatureSearch      = "search_results"
	FeatureTrends      = "trends"
	FeatureDiscover    = "discover_stories"
)

// userAgents approximates the per-client user-agent header logged with
// every frontend event; verbose but highly compressible, like the real
// thing.
var userAgents = map[string]string{
	"web":        "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_7_4) AppleWebKit/536.11 (KHTML, like Gecko) Chrome/20.0.1132.47 Safari/536.11",
	"iphone":     "Twitter-iPhone/4.3.2 iOS/5.1.1 (Apple;iPhone4,1;;;;;1)",
	"android":    "TwitterAndroid/3.2.1 (240) ICS/15 (samsung;GT-I9100;;;;;0)",
	"ipad":       "Twitter-iPad/4.3.2 iOS/5.1.1 (Apple;iPad2,1;;;;;1)",
	"mobile_web": "Mozilla/5.0 (Linux; U; Android 4.0.4; en-us; Galaxy Nexus) AppleWebKit/534.30 Mobile Safari/534.30",
}

// splitmix64 mixes a user id into a stable pseudo-random cookie value.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Clients and their traffic shares; the consistent design language of §3.2
// means the same sections/components exist on every client.
var defaultClients = []weighted{
	{"web", 45}, {"iphone", 25}, {"android", 20}, {"ipad", 5}, {"mobile_web", 5},
}

var defaultCountries = []weighted{
	{"us", 35}, {"jp", 15}, {"uk", 10}, {"br", 10}, {"in", 10}, {"de", 8}, {"id", 7}, {"mx", 5},
}

type weighted struct {
	key    string
	weight int
}

func pick(rng *rand.Rand, ws []weighted) string {
	total := 0
	for _, w := range ws {
		total += w.weight
	}
	n := rng.Intn(total)
	for _, w := range ws {
		n -= w.weight
		if n < 0 {
			return w.key
		}
	}
	return ws[len(ws)-1].key
}

// Config parameterizes a generated day of traffic.
type Config struct {
	Seed int64
	// Day is the UTC day events fall into.
	Day time.Time
	// Users is the logged-in population size.
	Users int
	// MaxSessionsPerUser bounds how many sessions a user starts (>= 1).
	MaxSessionsPerUser int
	// MeanPageVisits controls session length (pages visited per session).
	MeanPageVisits int
	// LoggedOutSessions adds sessions with user id 0 (unique cookies).
	LoggedOutSessions int
	// SignupFraction of logged-out sessions enter the signup funnel.
	SignupFraction float64
	// FunnelContinue[i] is P(reach stage i+1 | reached stage i).
	FunnelContinue []float64
	// CTR is the planted click-through rate per feature.
	CTR map[string]float64
	// FTR is the planted follow-through rate per feature.
	FTR map[string]float64
	// CollocationProb is P(profile click immediately after tweet expand).
	CollocationProb float64
}

// DefaultConfig returns the standard experiment workload for the given day.
func DefaultConfig(day time.Time) Config {
	return Config{
		Seed:               2012,
		Day:                day.UTC().Truncate(24 * time.Hour),
		Users:              500,
		MaxSessionsPerUser: 3,
		MeanPageVisits:     8,
		LoggedOutSessions:  150,
		SignupFraction:     0.6,
		FunnelContinue:     []float64{0.65, 0.75, 0.80, 0.90},
		CTR: map[string]float64{
			FeatureWhoToFollow: 0.12,
			FeatureSearch:      0.35,
			FeatureTrends:      0.08,
			FeatureDiscover:    0.18,
		},
		FTR: map[string]float64{
			FeatureWhoToFollow: 0.05,
		},
		CollocationProb: 0.70,
	}
}

// Truth is the generator's ground truth, used to verify analytics results.
type Truth struct {
	Events             int64
	Sessions           int64
	UniqueUsers        int64
	LoggedOutSessions  int64
	SessionsPerClient  map[string]int64
	SessionsPerCountry map[string]int64
	// FeatureImpressions / Clicks / Follows count planted engagement.
	FeatureImpressions map[string]int64
	FeatureClicks      map[string]int64
	FeatureFollows     map[string]int64
	// FunnelStage[i] counts sessions that reached funnel stage i.
	FunnelStage []int64
	// UserCountry and UserClient record each logged-in user's attributes —
	// the "users table" data scientists join against (§4.1).
	UserCountry map[int64]string
	UserClient  map[int64]string
	// ExpandEvents and ExpandThenProfileClick track the planted collocation.
	ExpandEvents           int64
	ExpandThenProfileClick int64
}

func newTruth() *Truth {
	return &Truth{
		SessionsPerClient:  make(map[string]int64),
		SessionsPerCountry: make(map[string]int64),
		FeatureImpressions: make(map[string]int64),
		FeatureClicks:      make(map[string]int64),
		FeatureFollows:     make(map[string]int64),
		FunnelStage:        make([]int64, 5),
		UserCountry:        make(map[int64]string),
		UserClient:         make(map[int64]string),
	}
}

// FunnelStages returns the five signup-funnel event names for a client, in
// order. Stage names are identical across clients modulo the client
// component, per the paper's consistent design language.
func FunnelStages(client string) []string {
	stages := []string{"start:view", "form:submit", "interests:select", "follow_suggestions:view", "complete:view"}
	out := make([]string, len(stages))
	for i, s := range stages {
		out[i] = client + ":signup:flow:step:" + s
	}
	return out
}

// FeaturePatterns maps each feature to the (impression, click) event-name
// suffixes analytics use to measure CTR.
var featureEvents = map[string]struct{ section, component, element string }{
	FeatureWhoToFollow: {"who_to_follow", "module", "user"},
	FeatureSearch:      {"results", "stream", "result"},
	FeatureTrends:      {"trends", "module", "trend"},
	FeatureDiscover:    {"stories", "stream", "story"},
}

// featurePage maps features to the page they live on.
var featurePage = map[string]string{
	FeatureWhoToFollow: "home",
	FeatureSearch:      "search",
	FeatureTrends:      "home",
	FeatureDiscover:    "discover",
}

// FeatureImpressionName returns the full impression event name of a feature
// on a client.
func FeatureImpressionName(client, feature string) string {
	fe := featureEvents[feature]
	return fmt.Sprintf("%s:%s:%s:%s:%s:impression", client, featurePage[feature], fe.section, fe.component, fe.element)
}

// FeatureClickName returns the full click event name of a feature.
func FeatureClickName(client, feature string) string {
	fe := featureEvents[feature]
	return fmt.Sprintf("%s:%s:%s:%s:%s:click", client, featurePage[feature], fe.section, fe.component, fe.element)
}

// FeatureFollowName returns the follow event name of a feature.
func FeatureFollowName(client, feature string) string {
	fe := featureEvents[feature]
	return fmt.Sprintf("%s:%s:%s:%s:%s:follow", client, featurePage[feature], fe.section, fe.component, fe.element)
}

// Markov page-navigation transition table: page → candidate next pages.
// The structure gives bigram models real predictive power (§5.4,
// ngram.TestPerplexityDecreasesOnSessions).
var pageTransitions = map[string][]weighted{
	"home":     {{"home", 40}, {"search", 15}, {"profile", 15}, {"discover", 20}, {"connect", 10}},
	"search":   {{"search", 30}, {"home", 40}, {"profile", 20}, {"discover", 10}},
	"profile":  {{"home", 50}, {"profile", 25}, {"search", 15}, {"connect", 10}},
	"discover": {{"home", 45}, {"discover", 35}, {"search", 10}, {"profile", 10}},
	"connect":  {{"home", 60}, {"profile", 30}, {"connect", 10}},
}

// Generator produces one day of traffic. A Generator is single-use: call
// Generate or GenerateTo exactly once.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	truth *Truth
	sink  func(*events.ClientEvent) error
	err   error // first sink error; generation short-circuits on it
}

// New returns a generator for the given config.
func New(cfg Config) *Generator {
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), truth: newTruth()}
}

// sessionPlan is one scheduled session: everything decided up front so
// sessions can then be emitted in start-time order.
type sessionPlan struct {
	userID  int64
	cookie  string
	client  string
	country string
	ip      string
	start   time.Time
	signup  bool
}

// GenerateTo streams the day's events into sink — sessions in start-time
// order, each session's events in time order — without ever materializing
// a []events.ClientEvent, which is what lets bench/ synthesize days
// orders of magnitude past the test corpora. Planning (user attributes
// and session start times) happens first and is cheap: one schedule entry
// per session, not per event. The emitted stream is only approximately
// timestamp-ordered globally (concurrent sessions interleave at session
// granularity); the warehouse writer buckets by each event's own hour, and
// every downstream consumer orders or windows by the event timestamp.
// Generate wraps this with a slice sink and a final stable sort for
// callers that need the exact global order. A sink error aborts generation
// and is returned.
func (g *Generator) GenerateTo(sink func(*events.ClientEvent) error) (*Truth, error) {
	g.sink = sink
	var plans []sessionPlan
	// Logged-in users.
	for u := 1; u <= g.cfg.Users; u++ {
		userID := int64(u)
		client := pick(g.rng, defaultClients)
		country := pick(g.rng, defaultCountries)
		g.truth.UserCountry[userID] = country
		g.truth.UserClient[userID] = client
		ip := geo.IPFor(country, userID)
		cookie := fmt.Sprintf("%016x", splitmix64(uint64(userID)))
		nSessions := 1 + g.rng.Intn(g.cfg.MaxSessionsPerUser)
		for _, start := range g.sessionStarts(nSessions) {
			plans = append(plans, sessionPlan{userID: userID, cookie: cookie, client: client, country: country, ip: ip, start: start})
		}
	}
	// Logged-out sessions: half browse, SignupFraction enter the funnel.
	for s := 0; s < g.cfg.LoggedOutSessions; s++ {
		client := pick(g.rng, defaultClients)
		country := pick(g.rng, defaultCountries)
		plans = append(plans, sessionPlan{
			cookie:  fmt.Sprintf("%016x", splitmix64(uint64(1<<40+s))),
			client:  client,
			country: country,
			ip:      geo.IPFor(country, int64(1e6+s)),
			start:   g.randomStart(),
			signup:  g.rng.Float64() < g.cfg.SignupFraction,
		})
	}
	// Emit sessions in start order. The stable sort keeps the schedule —
	// and therefore the RNG draw order — deterministic for a given seed.
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].start.Before(plans[j].start) })
	users := make(map[int64]bool)
	for i := range plans {
		if g.err != nil {
			break
		}
		p := &plans[i]
		if p.signup {
			g.signupSession(p.cookie, p.client, p.country, p.ip, p.start)
		} else {
			g.browseSessionAs(p.userID, p.cookie, p.client, p.country, p.ip, p.start)
			if p.userID != 0 {
				users[p.userID] = true
			}
		}
	}
	g.truth.UniqueUsers = int64(len(users))
	if g.err != nil {
		return nil, g.err
	}
	return g.truth, nil
}

// Generate produces the full day of events, sorted by timestamp, together
// with the ground truth. It is a thin materializing wrapper around
// GenerateTo; out-of-core callers should stream through GenerateTo
// instead.
func (g *Generator) Generate() ([]events.ClientEvent, *Truth) {
	var out []events.ClientEvent
	truth, err := g.GenerateTo(func(e *events.ClientEvent) error {
		out = append(out, *e)
		return nil
	})
	if err != nil {
		panic(err) // unreachable: the slice sink cannot fail
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out, truth
}

// sessionStarts returns nSessions start times separated by well over the
// 30-minute inactivity gap, so ground-truth session counts are exact.
func (g *Generator) sessionStarts(n int) []time.Time {
	// Slot the day into n equal windows, leaving the last 2 hours free so
	// sessions cannot spill past midnight.
	usable := 22 * time.Hour
	slot := usable / time.Duration(n)
	starts := make([]time.Time, n)
	for i := range starts {
		jitter := time.Duration(g.rng.Int63n(int64(slot / 2)))
		starts[i] = g.cfg.Day.Add(time.Duration(i)*slot + jitter)
	}
	return starts
}

func (g *Generator) randomStart() time.Time {
	return g.cfg.Day.Add(time.Duration(g.rng.Int63n(int64(22 * time.Hour))))
}

// emit appends one event, enriching its details the way production
// clients do: a unique request id (high entropy — this is what keeps raw
// logs big even after gzip), the user agent, and client build metadata.
// Session sequences discard all of it, which is where the §4.2 compression
// factor comes from.
func (g *Generator) emit(userID int64, cookie, client, ip string, at time.Time, name string, details map[string]string) {
	if g.err != nil {
		return
	}
	if details == nil {
		details = make(map[string]string, 4)
	}
	details["request_id"] = fmt.Sprintf("%016x%016x", g.rng.Uint64(), g.rng.Uint64())
	details["ua"] = userAgents[client]
	details["lang"] = "en"
	details["render_ms"] = fmt.Sprint(10 + g.rng.Intn(400))
	e := events.ClientEvent{
		Initiator: events.InitiatorClientUser,
		Name:      events.MustParseName(name),
		UserID:    userID,
		SessionID: cookie,
		IP:        ip,
		Timestamp: at.UnixMilli(),
		Details:   details,
	}
	if err := g.sink(&e); err != nil {
		g.err = err
		return
	}
	g.truth.Events++
}

// snowflake fabricates a Twitter-style 18-digit object id — the kind of
// high-entropy payload production event details are full of.
func (g *Generator) snowflake() string {
	return fmt.Sprint(100000000000000000 + g.rng.Int63n(899999999999999999))
}

// step advances the session clock by a few seconds — always far below the
// inactivity gap.
func (g *Generator) step(at *time.Time) {
	*at = at.Add(time.Duration(2+g.rng.Intn(28)) * time.Second)
}

// browseSessionAs emits one browsing session: a Markov walk over pages with
// per-page feature engagement.
func (g *Generator) browseSessionAs(userID int64, cookie, client, country, ip string, start time.Time) {
	g.truth.Sessions++
	g.truth.SessionsPerClient[client]++
	g.truth.SessionsPerCountry[country]++
	if userID == 0 {
		g.truth.LoggedOutSessions++
	}
	at := start
	page := "home"
	visits := 1 + g.rng.Intn(2*g.cfg.MeanPageVisits)
	// Session open event.
	g.emit(userID, cookie, client, ip, at, client+":"+page+":::page:open", nil)
	for v := 0; v < visits; v++ {
		g.visitPage(userID, cookie, client, ip, &at, page)
		next := pick(g.rng, pageTransitions[page])
		if next != page {
			g.step(&at)
			g.emit(userID, cookie, client, ip, at, client+":"+next+":::page:open", nil)
		}
		page = next
	}
}

// visitPage emits the engagement events of one page visit.
func (g *Generator) visitPage(userID int64, cookie, client, ip string, at *time.Time, page string) {
	switch page {
	case "home":
		// Timeline tweets: the dominant (Zipf head) event.
		nTweets := 1 + g.rng.Intn(6)
		for i := 0; i < nTweets; i++ {
			g.step(at)
			g.emit(userID, cookie, client, ip, *at, client+":home:timeline:stream:tweet:impression",
				map[string]string{"tweet_id": g.snowflake(), "author_id": fmt.Sprint(g.rng.Intn(5000000))})
		}
		// Planted collocation: expand → profile click.
		if g.rng.Float64() < 0.35 {
			g.step(at)
			g.emit(userID, cookie, client, ip, *at, client+":home:timeline:stream:tweet:expand", nil)
			g.truth.ExpandEvents++
			if g.rng.Float64() < g.cfg.CollocationProb {
				g.step(at)
				g.emit(userID, cookie, client, ip, *at, client+":home:timeline:stream:avatar:profile_click",
					map[string]string{"profile_id": fmt.Sprint(g.rng.Intn(100000))})
				g.truth.ExpandThenProfileClick++
			}
		}
		g.engageFeature(userID, cookie, client, ip, at, FeatureWhoToFollow, 0.5)
		g.engageFeature(userID, cookie, client, ip, at, FeatureTrends, 0.6)
	case "search":
		g.step(at)
		g.emit(userID, cookie, client, ip, *at, client+":search:::search_box:query",
			map[string]string{"q": fmt.Sprintf("q%03d", g.rng.Intn(500))})
		g.engageFeature(userID, cookie, client, ip, at, FeatureSearch, 1.0)
	case "discover":
		g.engageFeature(userID, cookie, client, ip, at, FeatureDiscover, 0.9)
	case "profile":
		g.step(at)
		g.emit(userID, cookie, client, ip, *at, client+":profile:tweets:stream:tweet:impression",
			map[string]string{"tweet_id": g.snowflake()})
		if g.rng.Float64() < 0.15 {
			g.step(at)
			g.emit(userID, cookie, client, ip, *at, client+":profile:::follow_button:follow", nil)
		}
	case "connect":
		g.step(at)
		g.emit(userID, cookie, client, ip, *at, client+":connect:mentions:stream:tweet:impression",
			map[string]string{"tweet_id": g.snowflake()})
	}
}

// engageFeature shows a feature with probability show, then clicks/follows
// per the planted CTR/FTR.
func (g *Generator) engageFeature(userID int64, cookie, client, ip string, at *time.Time, feature string, show float64) {
	if g.rng.Float64() >= show {
		return
	}
	g.step(at)
	g.emit(userID, cookie, client, ip, *at, FeatureImpressionName(client, feature),
		map[string]string{"item_id": g.snowflake()})
	g.truth.FeatureImpressions[feature]++
	if g.rng.Float64() < g.cfg.CTR[feature] {
		g.step(at)
		g.emit(userID, cookie, client, ip, *at, FeatureClickName(client, feature),
			map[string]string{"rank": fmt.Sprint(1 + g.rng.Intn(10))})
		g.truth.FeatureClicks[feature]++
	}
	if ftr, ok := g.cfg.FTR[feature]; ok && g.rng.Float64() < ftr {
		g.step(at)
		g.emit(userID, cookie, client, ip, *at, FeatureFollowName(client, feature), nil)
		g.truth.FeatureFollows[feature]++
	}
}

// signupSession walks the signup funnel, dropping out per FunnelContinue.
func (g *Generator) signupSession(cookie, client, country, ip string, start time.Time) {
	g.truth.Sessions++
	g.truth.SessionsPerClient[client]++
	g.truth.SessionsPerCountry[country]++
	g.truth.LoggedOutSessions++
	stages := FunnelStages(client)
	at := start
	for i, stage := range stages {
		g.emit(0, cookie, client, ip, at, stage, nil)
		g.truth.FunnelStage[i]++
		if i < len(g.cfg.FunnelContinue) && g.rng.Float64() >= g.cfg.FunnelContinue[i] {
			return
		}
		g.step(&at)
	}
}

// WriteWarehouse sorts the events by time and writes them into warehouse
// layout on fs — the fast path used when the delivery pipeline itself is
// not under test.
func WriteWarehouse(fs *hdfs.FS, evs []events.ClientEvent) error {
	w := warehouse.NewWriter(fs, events.Category)
	for i := range evs {
		if err := w.Append(&evs[i]); err != nil {
			return err
		}
	}
	return w.Close()
}
