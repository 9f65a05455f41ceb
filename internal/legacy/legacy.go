// Package legacy reproduces the paper's *first-generation* logging — the
// application-specific formats of §3.1 that the unified client events
// replaced. It is the "before" of the paper's headline comparison and is
// reached by nothing on the pipeline: the root TestSessionReconstructionCosts
// (§3.1/§4.1) is what holds it in the repository.
//
// Three deliberately inconsistent categories are modelled, each with the
// pathologies the paper complains about:
//
//   - web_frontend: nested JSON with camelCase field names (userId,
//     sessionCookie) and an ISO-8601 string timestamp;
//   - api_server: tab-delimited text with snake_case names (uid, sess) and a
//     seconds-resolution unix timestamp;
//   - search_service: a Thrift struct with a millisecond timestamp — and
//     *no session id at all*, so sessions must be inferred by user id and
//     time proximity ("no consistent way across all applications to easily
//     reconstruct the session, except based on timestamps and the user id").
//
// ReconstructSessions performs the join-based analysis those formats force
// on the data scientist; TestSessionReconstructionCosts and the root
// BenchmarkSessionReconstruction* compare its job stats against the unified
// group-by and the materialized session sequences (§3.1, §4.1).
package legacy

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/thrift"
)

// The legacy Scribe categories — "several dozen" in production, three here.
const (
	CategoryWeb    = "web_frontend"
	CategoryAPI    = "api_server"
	CategorySearch = "search_service"
)

// Categories lists all legacy categories.
var Categories = []string{CategoryWeb, CategoryAPI, CategorySearch}

// WebFrontendEvent is the JSON frontend log: rich, nested, camelCase.
type WebFrontendEvent struct {
	UserID        int64             `json:"userId"`
	SessionCookie string            `json:"sessionCookie"`
	ClientIP      string            `json:"clientIp"`
	Timestamp     string            `json:"timestamp"` // ISO-8601
	Event         webFrontendDetail `json:"event"`
}

type webFrontendDetail struct {
	Type   string            `json:"type"`
	Params map[string]string `json:"params,omitempty"`
}

// EncodeWebFrontend marshals the event to its JSON wire form.
func EncodeWebFrontend(userID int64, cookie, ip string, at time.Time, typ string, params map[string]string) []byte {
	b, err := json.Marshal(WebFrontendEvent{
		UserID:        userID,
		SessionCookie: cookie,
		ClientIP:      ip,
		Timestamp:     at.UTC().Format(time.RFC3339Nano),
		Event:         webFrontendDetail{Type: typ, Params: params},
	})
	if err != nil {
		panic(err) // all field types are JSON-safe
	}
	return b
}

// DecodeWebFrontend parses a JSON frontend record.
func DecodeWebFrontend(rec []byte) (WebFrontendEvent, error) {
	var e WebFrontendEvent
	if err := json.Unmarshal(rec, &e); err != nil {
		return e, fmt.Errorf("legacy: web_frontend: %w", err)
	}
	return e, nil
}

// Time parses the event's ISO-8601 timestamp.
func (e WebFrontendEvent) Time() (time.Time, error) {
	return time.Parse(time.RFC3339Nano, e.Timestamp)
}

// APIServerEvent is the tab-delimited mobile API log.
type APIServerEvent struct {
	UID    int64
	Sess   string
	Action string
	IP     string
	Unix   int64 // seconds — coarser than every other category
}

// EncodeAPIServer renders the tab-delimited line.
func EncodeAPIServer(uid int64, sess, action, ip string, at time.Time) []byte {
	return []byte(fmt.Sprintf("%d\t%s\t%s\t%s\t%d", uid, sess, action, ip, at.Unix()))
}

// DecodeAPIServer parses a tab-delimited line. The wrong delimiter setting
// "would yield no output or complete garbage" (§3.1); here it yields an
// error.
func DecodeAPIServer(rec []byte) (APIServerEvent, error) {
	parts := strings.Split(string(rec), "\t")
	if len(parts) != 5 {
		return APIServerEvent{}, fmt.Errorf("legacy: api_server: %d fields, want 5", len(parts))
	}
	uid, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return APIServerEvent{}, fmt.Errorf("legacy: api_server uid: %w", err)
	}
	ts, err := strconv.ParseInt(parts[4], 10, 64)
	if err != nil {
		return APIServerEvent{}, fmt.Errorf("legacy: api_server ts: %w", err)
	}
	return APIServerEvent{UID: uid, Sess: parts[1], Action: parts[2], IP: parts[3], Unix: ts}, nil
}

// SearchEvent is the Thrift search log. Note the missing session id.
type SearchEvent struct {
	UserID int64
	Action string
	IP     string
	Millis int64
}

// Encode implements thrift.Struct.
func (e *SearchEvent) Encode(enc *thrift.CompactEncoder) {
	enc.WriteStructBegin()
	enc.WriteFieldBegin(thrift.I64, 1)
	enc.WriteI64(e.UserID)
	enc.WriteFieldBegin(thrift.STRING, 2)
	enc.WriteString(e.Action)
	enc.WriteFieldBegin(thrift.STRING, 3)
	enc.WriteString(e.IP)
	enc.WriteFieldBegin(thrift.I64, 4)
	enc.WriteI64(e.Millis)
	enc.WriteFieldStop()
	enc.WriteStructEnd()
}

// Decode implements thrift.Struct.
func (e *SearchEvent) Decode(dec *thrift.CompactDecoder) error {
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
		case 1:
			e.UserID, err = dec.ReadI64()
		case 2:
			e.Action, err = dec.ReadString()
		case 3:
			e.IP, err = dec.ReadString()
		case 4:
			e.Millis, err = dec.ReadI64()
		default:
			err = dec.Skip(ft)
		}
		if err != nil {
			return err
		}
	}
	return dec.ReadStructEnd()
}

// FromClientEvent converts a unified client event into its legacy
// (category, record) form — the format each application team would have
// invented for itself. Mobile clients logged through the API servers, the
// search page through the search service, everything else through the web
// frontend.
func FromClientEvent(e *events.ClientEvent) (category string, record []byte) {
	at := time.UnixMilli(e.Timestamp)
	switch {
	case e.Name.Page == "search":
		se := &SearchEvent{UserID: e.UserID, Action: e.Name.Action, IP: e.IP, Millis: e.Timestamp}
		return CategorySearch, thrift.EncodeCompact(se)
	case e.Name.Client != "web":
		return CategoryAPI, EncodeAPIServer(e.UserID, e.SessionID, e.Name.Page+"/"+e.Name.Action, e.IP, at)
	default:
		return CategoryWeb, EncodeWebFrontend(e.UserID, e.SessionID, e.IP, at, e.Name.Page+":"+e.Name.Action, e.Details)
	}
}

// normalized is the common schema every legacy record must be wrestled into
// before sessions can be reconstructed.
var normalizedSchema = dataflow.Schema{"user_id", "session_hint", "ip", "timestamp_ms", "action"}

// Formats returns the per-category dataflow input formats that parse and
// normalize each legacy log — the custom deserialization code the paper's
// engineers had to write per category.
func Formats() map[string]dataflow.RawRecordFormat {
	return map[string]dataflow.RawRecordFormat{
		CategoryWeb: {
			Columns: normalizedSchema,
			Decode: func(rec []byte) dataflow.Tuple {
				e, err := DecodeWebFrontend(rec)
				if err != nil {
					return nil
				}
				t, err := e.Time()
				if err != nil {
					return nil
				}
				return dataflow.Tuple{e.UserID, e.SessionCookie, e.ClientIP, t.UnixMilli(), e.Event.Type}
			},
		},
		CategoryAPI: {
			Columns: normalizedSchema,
			Decode: func(rec []byte) dataflow.Tuple {
				e, err := DecodeAPIServer(rec)
				if err != nil {
					return nil
				}
				return dataflow.Tuple{e.UID, e.Sess, e.IP, e.Unix * 1000, e.Action}
			},
		},
		CategorySearch: {
			Columns: normalizedSchema,
			Decode: func(rec []byte) dataflow.Tuple {
				var e SearchEvent
				if err := thrift.DecodeCompact(rec, &e); err != nil {
					return nil
				}
				// No session id was logged; sessions will be inferred from
				// user id + time proximity alone.
				return dataflow.Tuple{e.UserID, "", e.IP, e.Millis, e.Action}
			},
		},
	}
}

// ReconstructSessions performs the pre-unification session analysis of
// §3.1: load all three categories with three different parsers, union them,
// group by user id, order by timestamp, and split on 30-minute gaps. It
// returns the number of sessions found. TestSessionReconstructionCosts
// compares its job stats with the unified and materialized variants.
func ReconstructSessions(j *dataflow.Job, dirsByCategory map[string][]string, gap time.Duration) (int64, error) {
	formats := Formats()
	// Only user_id and timestamp_ms survive into the group-by. The
	// selection goes through LoadDirsSelective, but RawRecordFormat is not
	// pushdown-aware — the planner falls through and applies the projection
	// row-side, after each category's custom parser has paid full decode.
	// That asymmetry against the columnar client-events path is part of
	// what the §3.1 comparison measures.
	sel := dataflow.Selection{Columns: []string{"user_id", "timestamp_ms"}}
	var parts []*dataflow.Dataset
	for _, cat := range Categories {
		d, err := j.LoadDirsSelective(dirsByCategory[cat], formats[cat], sel)
		if err != nil {
			return 0, err
		}
		parts = append(parts, d)
	}
	if len(parts) == 0 {
		return 0, nil
	}
	// The three category scans stream into one relation; nothing
	// materializes until the group-by shuffles it. The shuffle's secondary
	// sort orders each user's records by timestamp, so the gap walk below
	// consumes the group as it streams by.
	union := parts[0].Union(parts[1:]...)
	g, err := union.GroupByOrdered("timestamp_ms", "user_id")
	if err != nil {
		return 0, err
	}
	defer g.Close()
	gapMs := gap.Milliseconds()
	tsIdx := 1 // index in the projected (user_id, timestamp_ms) schema
	counts, err := g.ForEachGroup(dataflow.Schema{"sessions"}, func(key dataflow.Tuple, group []dataflow.Tuple) dataflow.Tuple {
		n := int64(1)
		for i := 1; i < len(group); i++ {
			if group[i][tsIdx].(int64)-group[i-1][tsIdx].(int64) > gapMs {
				n++
			}
		}
		return dataflow.Tuple{n}
	})
	if err != nil {
		return 0, err
	}
	ga, err := counts.GroupAll()
	if err != nil {
		return 0, err
	}
	defer ga.Close()
	total, err := ga.Sum("sessions", "total")
	if err != nil {
		return 0, err
	}
	rows, err := total.Tuples()
	if err != nil {
		return 0, err
	}
	return rows[0][0].(int64), nil
}
