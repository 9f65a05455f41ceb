package zk

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func newTestServer() (*Server, *ManualClock) {
	clock := NewManualClock(time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC))
	return NewServer(clock), clock
}

func TestCreateGet(t *testing.T) {
	srv, _ := newTestServer()
	c := srv.Connect(time.Minute)
	defer c.Close()

	if _, err := c.Create("/a", []byte("one"), Persistent); err != nil {
		t.Fatal(err)
	}
	data, err := c.Get("/a")
	if err != nil || string(data) != "one" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if _, err := c.Create("/a", []byte("two"), Persistent); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate Create err = %v", err)
	}
	if _, err := c.Get("/b"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("Get missing err = %v", err)
	}
}

func TestCreateRequiresParent(t *testing.T) {
	srv, _ := newTestServer()
	c := srv.Connect(time.Minute)
	if _, err := c.Create("/a/b", nil, Persistent); !errors.Is(err, ErrNoNode) {
		t.Fatalf("err = %v, want ErrNoNode", err)
	}
	mustCreate(t, c, "/a")
	if _, err := c.Create("/a/b", nil, Persistent); err != nil {
		t.Fatal(err)
	}
	if kids, err := c.Children("/a"); err != nil || len(kids) != 1 || kids[0] != "b" {
		t.Fatalf("children = %v, %v", kids, err)
	}
}

func mustCreate(t *testing.T, c *Conn, path string) string {
	t.Helper()
	p, err := c.Create(path, nil, Persistent)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	return p
}

func TestInvalidPaths(t *testing.T) {
	srv, _ := newTestServer()
	c := srv.Connect(time.Minute)
	for _, p := range []string{"", "a", "/a/", "//", "/a//b", "/a/./b", "/a/../b"} {
		if _, err := c.Create(p, nil, Persistent); !errors.Is(err, ErrInvalidPath) {
			t.Errorf("Create(%q) err = %v, want ErrInvalidPath", p, err)
		}
	}
}

// TestEphemeralLifecycle is the paper's aggregator-discovery mechanism:
// "Aggregators register themselves ... using an 'ephemeral' znode, which
// exists only for the duration of a client session" (§2).
func TestEphemeralLifecycle(t *testing.T) {
	srv, _ := newTestServer()
	owner := srv.Connect(time.Minute)
	watcher := srv.Connect(time.Minute)
	mustCreate(t, watcher, "/scribe")
	mustCreate(t, watcher, "/scribe/aggregators")

	if _, err := owner.Create("/scribe/aggregators/agg1", []byte("dc1:host1"), Ephemeral); err != nil {
		t.Fatal(err)
	}
	kids, err := watcher.Children("/scribe/aggregators")
	if err != nil || len(kids) != 1 {
		t.Fatalf("children = %v, %v", kids, err)
	}

	owner.Close() // simulated crash

	kids, err = watcher.Children("/scribe/aggregators")
	if err != nil || len(kids) != 0 {
		t.Fatalf("after close children = %v, %v", kids, err)
	}
}

func TestEphemeralCannotHaveChildren(t *testing.T) {
	srv, _ := newTestServer()
	c := srv.Connect(time.Minute)
	if _, err := c.Create("/e", nil, Ephemeral); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("/e/child", nil, Persistent); !errors.Is(err, ErrNoChildrenForEphemerals) {
		t.Fatalf("err = %v", err)
	}
}

// A session that pings inside its timeout lives on; once it idles past
// the timeout its own next operation expires it, and its ephemeral node is
// gone for everyone else.
func TestSessionExpiry(t *testing.T) {
	srv, clock := newTestServer()
	c := srv.Connect(30 * time.Second)
	if _, err := c.Create("/live", nil, Ephemeral); err != nil {
		t.Fatal(err)
	}
	obs := srv.Connect(time.Hour)

	clock.Advance(10 * time.Second)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping within timeout: %v", err)
	}
	clock.Advance(31 * time.Second)
	if kids, err := obs.Children("/"); err != nil || len(kids) != 1 {
		t.Fatalf("before the next operation children = %v, %v; expiry is lazy", kids, err)
	}
	if err := c.Ping(); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("ping after timeout err = %v, want ErrSessionExpired", err)
	}
	if kids, err := obs.Children("/"); err != nil || len(kids) != 0 {
		t.Fatalf("ephemeral survived session expiry: children = %v, %v", kids, err)
	}
	if err := c.Ping(); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("second ping after expiry err = %v", err)
	}
}

func TestLazyExpiryOnOperation(t *testing.T) {
	srv, clock := newTestServer()
	c := srv.Connect(time.Second)
	clock.Advance(2 * time.Second)
	if _, err := c.Create("/x", nil, Persistent); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("err = %v, want ErrSessionExpired", err)
	}
}

func TestClosedConnRejectsOps(t *testing.T) {
	srv, _ := newTestServer()
	c := srv.Connect(time.Minute)
	c.Close()
	if _, err := c.Create("/x", nil, Persistent); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	c.Close() // double close must be safe
}

// TestParentProperty checks parent() against a reference over generated paths.
func TestParentProperty(t *testing.T) {
	f := func(depth uint8, segment uint16) bool {
		d := int(depth%5) + 1
		p := ""
		for i := 0; i < d; i++ {
			p += fmt.Sprintf("/s%d", segment)
		}
		par := parent(p)
		if d == 1 {
			return par == "/"
		}
		return p == par+fmt.Sprintf("/s%d", segment)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// An ephemeral node deleted by its session's expiry is no longer the
// session's: re-created persistently by another session, it survives the
// expired session's Close.
func TestEphemeralDeleteClearsSessionTracking(t *testing.T) {
	srv, clock := newTestServer()
	c := srv.Connect(time.Second)
	if _, err := c.Create("/tmp", nil, Ephemeral); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	if err := c.Ping(); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("ping after timeout err = %v", err)
	}
	obs := srv.Connect(time.Minute)
	mustCreate(t, obs, "/tmp")
	c.Close()
	if _, err := obs.Get("/tmp"); err != nil {
		t.Fatalf("persistent node deleted by stale ephemeral tracking: %v", err)
	}
}
