package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(16)
	data := []byte("hello, warehouse")
	if err := fs.WriteFile("/logs/client_events/part-0", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/logs/client_events/part-0")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	// Parents are created implicitly.
	if _, err := fs.ReadFile("/logs/client_events"); !fs.Exists("/logs/client_events") || !errors.Is(err, ErrIsDirectory) {
		t.Fatalf("the parent reads as %v", err)
	}
}

func TestCreateVisibilityOnClose(t *testing.T) {
	fs := New(0)
	w, err := fs.Create("/tmp/pending")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/tmp/pending") {
		t.Fatal("file visible before Close")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/tmp/pending") {
		t.Fatal("file missing after Close")
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
}

func TestCreateExisting(t *testing.T) {
	fs := New(0)
	if err := fs.WriteFile("/a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/a"); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestBlockAccounting(t *testing.T) {
	fs := New(10)
	data := make([]byte, 95) // 10 blocks: 9 full + 1 partial
	if err := fs.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.Walk("/")
	if err != nil || len(infos) != 1 || infos[0].Blocks != 10 {
		t.Fatalf("Walk = %+v, %v; want one file of 10 blocks", infos, err)
	}
	before := fs.Snapshot()
	if _, err := fs.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}
	after := fs.Snapshot()
	if n := after.BlocksRead - before.BlocksRead; n != 10 {
		t.Fatalf("BlocksRead delta = %d, want 10", n)
	}
	if n := after.BytesRead - before.BytesRead; n != 95 {
		t.Fatalf("BytesRead delta = %d, want 95", n)
	}
}

// TestReadAt: a ranged read returns the bytes it was asked for and charges
// them and each block they touch, one block per block touched however
// small the range; a range past the end returns what is there with io.EOF.
func TestReadAt(t *testing.T) {
	fs := New(4)
	if err := fs.WriteFile("/f", []byte("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		off    int64
		n      int
		want   string
		blocks int64
		err    error
	}{
		{0, 4, "abcd", 1, nil},
		{4, 4, "efgh", 1, nil},
		{8, 2, "ij", 1, nil},
		{3, 2, "de", 2, nil},
		{1, 9, "bcdefghij", 3, nil},
		{5, 0, "", 0, nil},
		{8, 4, "ij", 1, io.EOF},
		{10, 1, "", 0, io.EOF},
	} {
		before := fs.Snapshot()
		p := make([]byte, tc.n)
		n, err := fs.ReadAt("/f", tc.off, p)
		after := fs.Snapshot()
		if err != tc.err || string(p[:n]) != tc.want {
			t.Fatalf("ReadAt(%d, %d) = %q, %v; want %q, %v", tc.off, tc.n, p[:n], err, tc.want, tc.err)
		}
		if got := after.BlocksRead - before.BlocksRead; got != tc.blocks {
			t.Fatalf("ReadAt(%d, %d) charged %d blocks, want %d", tc.off, tc.n, got, tc.blocks)
		}
		if got := after.BytesRead - before.BytesRead; got != int64(n) {
			t.Fatalf("ReadAt(%d, %d) charged %d bytes, read %d", tc.off, tc.n, got, n)
		}
	}
	if _, err := fs.ReadAt("/f", -1, make([]byte, 1)); err == nil {
		t.Fatal("a read at a negative offset succeeded")
	}
	if _, err := fs.ReadAt("/g", 0, make([]byte, 1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a read of a missing file: %v", err)
	}
}

func TestSmallReadsChargeBlocksOnce(t *testing.T) {
	fs := New(10)
	if err := fs.WriteFile("/f", make([]byte, 30)); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Snapshot()
	buf := make([]byte, 3)
	for {
		if _, err := r.Read(buf); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	delta := fs.Snapshot().BlocksRead - before.BlocksRead
	if delta != 3 {
		t.Fatalf("BlocksRead delta = %d, want 3 (blocks charged once)", delta)
	}
}

// TestAtomicRenameDirectory is the log-mover primitive: an hour of staged
// logs appears in the warehouse in one atomic operation.
func TestAtomicRenameDirectory(t *testing.T) {
	fs := New(0)
	for i := 0; i < 3; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/staging/ce/2012/08/21/14/part-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Rename("/staging/ce/2012/08/21/14", "/logs/client_events/2012/08/21/14"); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.Walk("/logs/client_events/2012/08/21/14")
	if err != nil || len(infos) != 3 {
		t.Fatalf("after rename: %v, %v", infos, err)
	}
	if fs.Exists("/staging/ce/2012/08/21/14") {
		t.Fatal("source directory survived rename")
	}
	// Destination conflicts are rejected.
	if err := fs.WriteFile("/staging/x", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/staging/x", "/logs/client_events/2012/08/21/14"); !errors.Is(err, ErrExists) {
		t.Fatalf("rename onto existing err = %v", err)
	}
}

func TestRenameFile(t *testing.T) {
	fs := New(0)
	if err := fs.WriteFile("/a/b", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a/b", "/c/d/e"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/c/d/e")
	if err != nil || string(got) != "payload" {
		t.Fatalf("after rename = %q, %v", got, err)
	}
}

func TestOutageInjection(t *testing.T) {
	fs := New(0)
	if err := fs.WriteFile("/ok", nil); err != nil {
		t.Fatal(err)
	}
	fs.SetAvailable(false)
	if err := fs.WriteFile("/fail", nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("write during outage err = %v", err)
	}
	if _, err := fs.ReadFile("/ok"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("read during outage err = %v", err)
	}
	fs.SetAvailable(true)
	if err := fs.WriteFile("/fail", nil); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

func TestWriterFailsDuringOutage(t *testing.T) {
	fs := New(0)
	w, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	fs.SetAvailable(false)
	if err := w.Close(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("close during outage err = %v", err)
	}
}

func TestWalkAndTotalSize(t *testing.T) {
	fs := New(0)
	paths := []string{"/logs/b/1", "/logs/top", "/logs/a/2", "/logs/a/1"}
	for i, p := range paths {
		if err := fs.WriteFile(p, make([]byte, i)); err != nil {
			t.Fatal(err)
		}
	}
	all, err := fs.Walk("/logs")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fi := range all {
		names = append(names, fi.Path)
	}
	want := []string{"/logs/a/1", "/logs/a/2", "/logs/b/1", "/logs/top"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Walk = %v, want every file under /logs in path order %v", names, want)
	}
	if sub, err := fs.Walk("/logs/a"); err != nil || len(sub) != 2 {
		t.Fatalf("Walk(/logs/a) = %v, %v", sub, err)
	}
	if _, err := fs.Walk("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Walk(/missing) err = %v, want ErrNotFound", err)
	}
	total, err := fs.TotalSize("/logs")
	if err != nil || total != 0+1+2+3 {
		t.Fatalf("TotalSize = %d, %v", total, err)
	}
}

func TestDelete(t *testing.T) {
	fs := New(0)
	if err := fs.WriteFile("/d/f1", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/f2", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("/d", false); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("non-recursive delete err = %v", err)
	}
	if err := fs.Delete("/d", true); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d") || fs.Exists("/d/f1") {
		t.Fatal("delete left residue")
	}
}

func TestInvalidPaths(t *testing.T) {
	fs := New(0)
	for _, p := range []string{"", "rel", "/a//b", "/a/./b", "/.."} {
		if err := fs.WriteFile(p, nil); !errors.Is(err, ErrInvalidPath) {
			t.Errorf("WriteFile(%q) err = %v", p, err)
		}
	}
	// Trailing slash is normalized rather than rejected.
	if err := fs.MkdirAll("/ok/"); err != nil {
		t.Errorf("MkdirAll with trailing slash: %v", err)
	}
}

// TestRoundTripProperty: any byte content survives write/read, and block
// math matches ceil(len/blockSize).
// TestExistsAllocatesNothing: the warehouse asks Exists of hour
// directories on every query plan, most of them missing; neither answer
// builds an error to throw away.
func TestExistsAllocatesNothing(t *testing.T) {
	fs := New(64)
	if err := fs.WriteFile("/logs/a/part-0", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]bool{"/logs/a/part-0": true, "/logs/a": true, "/logs/b": false} {
		if got := fs.Exists(path); got != want {
			t.Fatalf("Exists(%s) = %v, want %v", path, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { fs.Exists(path) }); n != 0 {
			t.Errorf("Exists(%s) allocates %v times", path, n)
		}
	}
	if _, err := fs.Open("/logs/b"); !errors.Is(err, ErrNotFound) || err.Error() != ErrNotFound.Error()+": /logs/b" {
		t.Errorf("Open of a missing path = %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	fs := New(7)
	i := 0
	f := func(data []byte) bool {
		i++
		path := fmt.Sprintf("/p/f%d", i)
		if err := fs.WriteFile(path, data); err != nil {
			return false
		}
		got, err := fs.ReadFile(path)
		if err != nil || !bytes.Equal(got, data) {
			return false
		}
		infos, err := fs.Walk("/p")
		if err != nil {
			return false
		}
		want := (len(data) + 6) / 7
		for _, fi := range infos {
			if fi.Path == path {
				return fi.Blocks == want
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	fs := New(0)
	const n = 32
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			errs <- fs.WriteFile(fmt.Sprintf("/c/f%02d", i), bytes.Repeat([]byte{byte(i)}, 100))
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	infos, err := fs.Walk("/c")
	if err != nil || len(infos) != n {
		t.Fatalf("Walk = %d files, %v", len(infos), err)
	}
	total, _ := fs.TotalSize("/c")
	if total != n*100 {
		t.Fatalf("TotalSize = %d", total)
	}
}
