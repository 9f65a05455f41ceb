package events_test

import (
	"errors"
	"maps"
	"reflect"
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/thrift"
	"unilog/internal/workload"
)

// decodeReference is ClientEvent.Decode as it stood before it was rebuilt
// on the header walk: its own switch over the field ids (1-7, part of the
// wire contract), strings and the details map allocated as it goes, the
// name validated where it is read. The walk and the Decode built on it are
// held to it.
func decodeReference(e *events.ClientEvent, dec *thrift.CompactDecoder) error {
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
			var v int8
			if v, err = dec.ReadI8(); err == nil {
				e.Initiator = events.Initiator(v)
			}
		case 2:
			var s string
			if s, err = dec.ReadString(); err == nil {
				e.Name, err = events.ParseName(s)
			}
		case 3:
			e.UserID, err = dec.ReadI64()
		case 4:
			e.SessionID, err = dec.ReadString()
		case 5:
			e.IP, err = dec.ReadString()
		case 6:
			e.Timestamp, err = dec.ReadI64()
		case 7:
			var n int
			if _, _, n, err = dec.ReadMapBegin(); err == nil {
				e.Details = make(map[string]string, n)
				for i := 0; i < n; i++ {
					var k, v string
					if k, err = dec.ReadString(); err != nil {
						return err
					}
					if v, err = dec.ReadString(); err != nil {
						return err
					}
					e.Details[k] = v
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

// isThriftErr reports whether err came from the decoder rather than from
// name validation.
func isThriftErr(err error) bool {
	for _, sentinel := range []error{thrift.ErrTruncated, thrift.ErrInvalidType, thrift.ErrDepthLimit, thrift.ErrSizeLimit} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// generatorEvents is the workload generator's first logged-in event, its
// first logged-out one, and — the generator gives every event details — a
// copy of the first without any, so the field's absence is seeded too.
func generatorEvents(t testing.TB) []events.ClientEvent {
	cfg := workload.DefaultConfig(time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC))
	cfg.Users, cfg.LoggedOutSessions = 12, 6
	all, _ := workload.New(cfg).Generate()
	var out []events.ClientEvent
	for _, loggedIn := range []bool{true, false} {
		for _, e := range all {
			if e.LoggedIn() == loggedIn {
				out = append(out, e)
				break
			}
		}
	}
	if len(out) != 2 {
		t.Fatalf("generator produced no logged-in or no logged-out event among %d", len(all))
	}
	bare := out[0]
	bare.Details = nil
	return append(out, bare)
}

// withExtraFields re-encodes e the way a newer or sloppier producer might:
// an unknown trailing field (a struct holding a list, so Skip recurses),
// and the name and timestamp fields written a second time.
func withExtraFields(e *events.ClientEvent, unknown, duplicate bool) []byte {
	enc := thrift.NewCompactEncoder()
	enc.WriteStructBegin()
	enc.WriteFieldBegin(thrift.BYTE, 1)
	enc.WriteI8(int8(e.Initiator))
	enc.WriteFieldBegin(thrift.STRING, 2)
	enc.WriteString(e.Name.String())
	enc.WriteFieldBegin(thrift.I64, 3)
	enc.WriteI64(e.UserID)
	enc.WriteFieldBegin(thrift.STRING, 4)
	enc.WriteString(e.SessionID)
	enc.WriteFieldBegin(thrift.STRING, 5)
	enc.WriteString(e.IP)
	enc.WriteFieldBegin(thrift.I64, 6)
	enc.WriteI64(e.Timestamp)
	if duplicate {
		enc.WriteFieldBegin(thrift.STRING, 2)
		enc.WriteString("web:again:::dup:click")
		enc.WriteFieldBegin(thrift.I64, 6)
		enc.WriteI64(e.Timestamp + 1)
	}
	if unknown {
		enc.WriteFieldBegin(thrift.STRUCT, 12)
		enc.WriteStructBegin()
		enc.WriteFieldBegin(thrift.LIST, 1)
		enc.WriteListBegin(thrift.I32, 3)
		enc.WriteI32(1)
		enc.WriteI32(-2)
		enc.WriteI32(300)
		enc.WriteFieldBegin(thrift.BOOL, 2)
		enc.WriteBool(true)
		enc.WriteFieldStop()
		enc.WriteStructEnd()
	}
	enc.WriteFieldStop()
	enc.WriteStructEnd()
	return append([]byte(nil), enc.Bytes()...)
}

// withDetailsShapes encodes e's fixed fields around the shapes of the name
// and details fields the generator never writes: the name left out or
// empty, the map with one key twice (the second value must win) or with no
// entries at all, and the whole details field a second time (the second map
// replaces the first).
func withDetailsShapes(e *events.ClientEvent, name *string, pairs [][2]string, again [][2]string) []byte {
	enc := thrift.NewCompactEncoder()
	enc.WriteStructBegin()
	if name != nil {
		enc.WriteFieldBegin(thrift.STRING, 2)
		enc.WriteString(*name)
	}
	enc.WriteFieldBegin(thrift.I64, 3)
	enc.WriteI64(e.UserID)
	enc.WriteFieldBegin(thrift.I64, 6)
	enc.WriteI64(e.Timestamp)
	for _, m := range [][][2]string{pairs, again} {
		if m == nil {
			continue
		}
		enc.WriteFieldBegin(thrift.MAP, 7)
		enc.WriteMapBegin(thrift.STRING, thrift.STRING, len(m))
		for _, kv := range m {
			enc.WriteString(kv[0])
			enc.WriteString(kv[1])
		}
	}
	enc.WriteFieldStop()
	enc.WriteStructEnd()
	return append([]byte(nil), enc.Bytes()...)
}

// withPendingBool encodes e's name and then its timestamp under a BOOL
// field header, as a sloppy producer might, and an unknown list<bool> field
// carrying one byte for its two elements. The walk reads field 6 by id, the
// timestamp's varint from the bytes after the header, and the header's bool
// stays pending in the decoder: the list's first element takes it, its
// second the one byte, and the message decodes.
func withPendingBool(e *events.ClientEvent) []byte {
	enc := thrift.NewCompactEncoder()
	enc.WriteStructBegin()
	enc.WriteFieldBegin(thrift.STRING, 2)
	enc.WriteString(e.Name.String())
	enc.WriteFieldBegin(thrift.BOOL, 6)
	enc.WriteBool(true)
	enc.WriteI64(e.Timestamp)
	enc.WriteFieldBegin(thrift.LIST, 9)
	enc.WriteListBegin(thrift.BOOL, 2)
	enc.WriteBool(false)
	enc.WriteFieldStop()
	enc.WriteStructEnd()
	return append([]byte(nil), enc.Bytes()...)
}

// FuzzHeaderMatchesDecode holds the header walk — bare and with the details
// pairs — and the Decode rebuilt on it to the reference above on arbitrary
// bytes:
//
//   - the reference decodes: so do all three, to equal fields, Decode's
//     details map is the reference's, and the pairs folded last-wins into a
//     map are the reference's details;
//   - the reference fails in the decoder (truncated, oversized, bad type,
//     too deep): both fail with the same error;
//   - the reference fails on the name: the walk, which does not validate,
//     either fails in the decoder further on or hands back a name — no
//     more is asked of it;
//   - the two walks fail on the same inputs with the same error and fill
//     equal headers;
//   - the header's slices lie inside the message, and a walk that succeeds
//     allocates nothing — the pairs variant once its slice has grown —
//     whatever lengths the bytes claim.
func FuzzHeaderMatchesDecode(f *testing.F) {
	for _, e := range generatorEvents(f) {
		e := e
		msg := e.Marshal()
		for cut := 0; cut <= len(msg); cut++ {
			f.Add(msg[:cut])
		}
		for i := range msg {
			flipped := append([]byte(nil), msg...)
			flipped[i] ^= 1 << (i % 8)
			f.Add(flipped)
		}
		f.Add(withExtraFields(&e, true, false))
		f.Add(withExtraFields(&e, false, true))
		f.Add(withExtraFields(&e, true, true))
		name, empty := e.Name.String(), ""
		f.Add(withDetailsShapes(&e, &name, [][2]string{{"k", "first"}, {"j", "x"}, {"k", "last"}}, nil))
		f.Add(withDetailsShapes(&e, &name, [][2]string{}, nil))
		f.Add(withDetailsShapes(&e, &name, [][2]string{{"a", "1"}, {"b", "2"}}, [][2]string{{"c", "3"}}))
		f.Add(withDetailsShapes(&e, nil, [][2]string{{"k", "v"}}, nil))
		f.Add(withDetailsShapes(&e, &empty, nil, nil))
		f.Add(withPendingBool(&e))
	}
	// The timestamp under a BOOL header, then an unknown list<bool> of two
	// whose first element takes the pending bool and whose second reads
	// 0x30, so the next field header, 0x30, names no type.
	f.Add([]byte{0x61, 0x30, 0x39, 0x21, 0x30, 0x30})
	var pairs []events.Pair // grown once, reused by every input, as a seal reuses it
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref events.ClientEvent
		refErr := decodeReference(&ref, thrift.NewCompactDecoder(data))

		var dec thrift.CompactDecoder
		var h events.Header
		dec.Reset(data)
		err := h.Decode(&dec)
		var hp events.Header
		dec.Reset(data)
		var pairsErr error
		pairs, pairsErr = hp.DecodePairs(&dec, pairs)
		if (err == nil) != (pairsErr == nil) || (err != nil && err.Error() != pairsErr.Error()) {
			t.Fatalf("walk(%x) = %v, with pairs %v", data, err, pairsErr)
		}
		if err == nil && !reflect.DeepEqual(hp, h) {
			t.Fatalf("walk(%x) = %+v, with pairs %+v", data, h, hp)
		}
		var got events.ClientEvent
		gotErr := got.Unmarshal(data)

		switch {
		case refErr == nil:
			if err != nil || gotErr != nil {
				t.Fatalf("the reference decodes %x; the walk says %v, Decode %v", data, err, gotErr)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("Decode(%x) = %+v, the reference %+v", data, got, ref)
			}
			folded := map[string]string{}
			for _, p := range pairs {
				folded[string(p.K)] = string(p.V)
			}
			if !maps.Equal(folded, ref.Details) {
				t.Fatalf("walk(%x) pairs %v, the reference's details %v", data, folded, ref.Details)
			}
			name := events.EventName{}
			if h.Name != nil {
				if name, err = events.ParseName(string(h.Name)); err != nil {
					t.Fatalf("the reference decodes %x; the walk's name fails: %v", data, err)
				}
			}
			fromHeader := events.ClientEvent{
				Initiator: h.Initiator, Name: name, UserID: h.UserID,
				SessionID: string(h.SessionID), IP: string(h.IP), Timestamp: h.Timestamp,
			}
			ref.Details = nil // the walk reads past them
			if !reflect.DeepEqual(fromHeader, ref) || h.LoggedIn() != ref.LoggedIn() {
				t.Fatalf("walk(%x) = %+v, the reference %+v", data, h, ref)
			}
		case isThriftErr(refErr):
			if err == nil || err.Error() != refErr.Error() {
				t.Fatalf("walk(%x) = %v, the reference fails with %v", data, err, refErr)
			}
			if gotErr == nil || gotErr.Error() != refErr.Error() {
				t.Fatalf("Decode(%x) = %v, the reference fails with %v", data, gotErr, refErr)
			}
		default: // name validation
			if err != nil && !isThriftErr(err) {
				t.Fatalf("walk(%x) = %v: not a decoder error, and the walk validates nothing", data, err)
			}
		}
		if err != nil {
			return
		}
		held := len(h.Name) + len(h.SessionID) + len(h.IP)
		for _, p := range pairs {
			held += len(p.K) + len(p.V)
		}
		if held > len(data) {
			t.Fatalf("walk(%x): %d header and details bytes out of a %d-byte message", data, held, len(data))
		}
		if n := testing.AllocsPerRun(1, func() {
			dec.Reset(data)
			_ = h.Decode(&dec)
		}); n != 0 {
			t.Fatalf("walk(%x) allocates %v objects", data, n)
		}
		if n := testing.AllocsPerRun(1, func() {
			dec.Reset(data)
			pairs, _ = hp.DecodePairs(&dec, pairs)
		}); n != 0 {
			t.Fatalf("walk(%x) with pairs allocates %v objects", data, n)
		}
	})
}
