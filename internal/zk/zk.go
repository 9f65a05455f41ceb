// Package zk is an in-process reimplementation of the subset of Apache
// ZooKeeper that Twitter's Scribe infrastructure relies on (§2 of the paper):
// a hierarchical namespace of znodes, persistent and ephemeral nodes, and
// sessions with expiry.
//
// Scribe aggregators register themselves under a fixed path using ephemeral
// znodes; Scribe daemons list that path to discover a live aggregator and
// re-list it when their aggregator disappears. Closing a session, or the
// session's own next operation finding it past its timeout, deletes its
// ephemeral nodes — that is how a crashed or stopped aggregator leaves
// discovery. There are no watches, sequential nodes or versions: Scribe
// polls and never rewrites a znode.
//
// The server is purely in-memory and synchronized with a mutex; time is
// injected through a Clock so session expiry is deterministic in tests.
package zk

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors returned by znode operations, mirroring ZooKeeper's error codes.
var (
	ErrNoNode                  = errors.New("zk: node does not exist")
	ErrNodeExists              = errors.New("zk: node already exists")
	ErrNoChildrenForEphemerals = errors.New("zk: ephemeral nodes may not have children")
	ErrSessionExpired          = errors.New("zk: session expired")
	ErrClosed                  = errors.New("zk: connection closed")
	ErrInvalidPath             = errors.New("zk: invalid path")
)

// CreateMode selects the lifetime of a new znode.
type CreateMode int

// Create modes, as in ZooKeeper.
const (
	// Persistent nodes outlive the creating session.
	Persistent CreateMode = iota
	// Ephemeral nodes are deleted when the creating session ends.
	Ephemeral
)

// Clock abstracts time for deterministic session-expiry testing.
type Clock interface {
	Now() time.Time
}

// SystemClock is the wall clock.
type SystemClock struct{}

// Now returns time.Now.
func (SystemClock) Now() time.Time { return time.Now() }

// ManualClock is an explicitly advanced clock for tests.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewManualClock returns a manual clock starting at t.
func NewManualClock(t time.Time) *ManualClock { return &ManualClock{t: t} }

// Now returns the current manual time.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

type znode struct {
	data      []byte
	ephemeral bool
	children  map[string]struct{}
}

type session struct {
	timeout    time.Duration
	lastSeen   time.Time
	ephemerals map[string]struct{}
	expired    bool
}

// Server is an in-memory coordination service.
type Server struct {
	mu    sync.Mutex
	clock Clock
	nodes map[string]*znode
}

// NewServer returns a server with an empty namespace rooted at "/".
// A nil clock defaults to the system clock.
func NewServer(clock Clock) *Server {
	if clock == nil {
		clock = SystemClock{}
	}
	s := &Server{
		clock: clock,
		nodes: make(map[string]*znode),
	}
	s.nodes["/"] = &znode{children: make(map[string]struct{})}
	return s
}

// Connect opens a new session with the given timeout. A session that issues
// no operation (or Ping) within the timeout expires on its next operation.
func (s *Server) Connect(timeout time.Duration) *Conn {
	sess := &session{
		timeout:    timeout,
		lastSeen:   s.clock.Now(),
		ephemerals: make(map[string]struct{}),
	}
	return &Conn{srv: s, sess: sess}
}

func (s *Server) expireLocked(sess *session) {
	if sess.expired {
		return
	}
	sess.expired = true
	for path := range sess.ephemerals {
		s.deleteLocked(path)
	}
}

// parent returns the parent path of p ("/a/b" -> "/a", "/a" -> "/").
func parent(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

func validPath(p string) error {
	if p == "/" {
		return nil
	}
	if p == "" || p[0] != '/' || strings.HasSuffix(p, "/") {
		return fmt.Errorf("%w: %q", ErrInvalidPath, p)
	}
	for _, part := range strings.Split(p[1:], "/") {
		if part == "" || part == "." || part == ".." {
			return fmt.Errorf("%w: %q", ErrInvalidPath, p)
		}
	}
	return nil
}

func (s *Server) deleteLocked(path string) {
	if _, ok := s.nodes[path]; !ok {
		return
	}
	delete(s.nodes, path)
	if pn, ok := s.nodes[parent(path)]; ok {
		delete(pn.children, path[strings.LastIndexByte(path, '/')+1:])
	}
}

// Conn is a client handle bound to one session.
type Conn struct {
	srv    *Server
	sess   *session
	mu     sync.Mutex
	closed bool
}

// touchLocked validates the session and refreshes its activity timestamp.
// Callers must hold srv.mu.
func (c *Conn) touchLocked() error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	now := c.srv.clock.Now()
	if c.sess.expired || now.Sub(c.sess.lastSeen) > c.sess.timeout {
		c.srv.expireLocked(c.sess)
		return ErrSessionExpired
	}
	c.sess.lastSeen = now
	return nil
}

// Ping refreshes the session so it does not expire.
func (c *Conn) Ping() error {
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	return c.touchLocked()
}

// Create adds a znode at path with the given data and mode and returns its
// path.
func (c *Conn) Create(path string, data []byte, mode CreateMode) (string, error) {
	if err := validPath(path); err != nil {
		return "", err
	}
	if path == "/" {
		return "", ErrNodeExists
	}
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	if err := c.touchLocked(); err != nil {
		return "", err
	}
	pp := parent(path)
	pn, ok := c.srv.nodes[pp]
	if !ok {
		return "", fmt.Errorf("%w: parent %s", ErrNoNode, pp)
	}
	if pn.ephemeral {
		return "", ErrNoChildrenForEphemerals
	}
	if _, exists := c.srv.nodes[path]; exists {
		return "", fmt.Errorf("%w: %s", ErrNodeExists, path)
	}
	n := &znode{
		data:      append([]byte(nil), data...),
		ephemeral: mode == Ephemeral,
		children:  make(map[string]struct{}),
	}
	if n.ephemeral {
		c.sess.ephemerals[path] = struct{}{}
	}
	c.srv.nodes[path] = n
	pn.children[path[strings.LastIndexByte(path, '/')+1:]] = struct{}{}
	return path, nil
}

// Get returns the data of the znode at path.
func (c *Conn) Get(path string) ([]byte, error) {
	if err := validPath(path); err != nil {
		return nil, err
	}
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	if err := c.touchLocked(); err != nil {
		return nil, err
	}
	n, ok := c.srv.nodes[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	return append([]byte(nil), n.data...), nil
}

// Children returns the sorted names of the children of the znode at path.
func (c *Conn) Children(path string) ([]string, error) {
	if err := validPath(path); err != nil {
		return nil, err
	}
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	if err := c.touchLocked(); err != nil {
		return nil, err
	}
	n, ok := c.srv.nodes[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Close ends the session and deletes its ephemeral nodes, exactly as a
// crashed or restarted client would after session teardown.
func (c *Conn) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.srv.mu.Lock()
	c.srv.expireLocked(c.sess)
	c.srv.mu.Unlock()
}
