// Package hdfs is an in-memory stand-in for the Hadoop Distributed File
// System as the paper uses it: a hierarchical namespace of append-once
// files, block-granular reads, and atomic rename.
//
// Three properties of real HDFS matter to the paper's story and are
// preserved here:
//
//   - Files are divided into fixed-size blocks, and analytics jobs spawn one
//     map task per block (§4.1: raw client-event scans "routinely spawned
//     tens of thousands of mappers"). Block counts and block-read statistics
//     are first-class so the experiments can measure exactly that effect.
//   - Rename is atomic, which is how the log mover "atomically slides an
//     hour's worth of logs into the main data warehouse" (§2).
//   - The filesystem can become unavailable (an injected outage), which is
//     what Scribe aggregators buffer against ("aggregators buffer data on
//     local disk in case of HDFS outages", §2).
//
// All I/O is accounted in Stats, letting benchmarks report bytes scanned and
// blocks touched rather than only wall-clock time.
package hdfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Errors returned by filesystem operations.
var (
	ErrNotFound    = errors.New("hdfs: no such file or directory")
	ErrExists      = errors.New("hdfs: file already exists")
	ErrIsDirectory = errors.New("hdfs: is a directory")
	ErrNotDir      = errors.New("hdfs: not a directory")
	ErrUnavailable = errors.New("hdfs: filesystem unavailable")
	ErrInvalidPath = errors.New("hdfs: invalid path")
	ErrNotEmpty    = errors.New("hdfs: directory not empty")
)

// DefaultBlockSize is deliberately small (256 KiB versus HDFS's 64–128 MB)
// so laptop-scale corpora still span many blocks and the map-task arithmetic
// of the paper remains visible.
const DefaultBlockSize = 256 << 10

// Stats counts filesystem activity. Counters are cumulative; use Snapshot
// deltas to meter a single job.
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	BlocksRead   int64
	FilesCreated int64
	FilesDeleted int64
	Renames      int64
	OpenOps      int64
}

// FileInfo describes a file or directory.
type FileInfo struct {
	Path  string
	Size  int64
	IsDir bool
	// Blocks is the number of fixed-size blocks the file occupies; zero for
	// directories.
	Blocks int
}

// FS is an in-memory block filesystem. The zero value is not usable; call
// New.
type FS struct {
	mu        sync.RWMutex
	blockSize int
	files     map[string][]byte
	dirs      map[string]struct{}
	down      atomic.Bool

	statMu sync.Mutex
	stats  Stats
}

// New returns an empty filesystem with the given block size; blockSize <= 0
// selects DefaultBlockSize.
func New(blockSize int) *FS {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	fs := &FS{
		blockSize: blockSize,
		files:     make(map[string][]byte),
		dirs:      make(map[string]struct{}),
	}
	fs.dirs["/"] = struct{}{}
	return fs
}

// SetAvailable injects or clears an outage. While unavailable every
// operation fails with ErrUnavailable.
func (fs *FS) SetAvailable(up bool) { fs.down.Store(!up) }

func (fs *FS) check() error {
	if fs.down.Load() {
		return ErrUnavailable
	}
	return nil
}

func cleanPath(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", fmt.Errorf("%w: %q", ErrInvalidPath, p)
	}
	if p == "/" {
		return p, nil
	}
	p = strings.TrimSuffix(p, "/")
	// Cut, not Split: every call cleans its path, and a split allocates.
	for rest := p[1:]; ; {
		part, tail, more := strings.Cut(rest, "/")
		if part == "" || part == "." || part == ".." {
			return "", fmt.Errorf("%w: %q", ErrInvalidPath, p)
		}
		if !more {
			return p, nil
		}
		rest = tail
	}
}

func parentDir(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// addStats merges delta into the cumulative counters.
func (fs *FS) addStats(delta Stats) {
	fs.statMu.Lock()
	fs.stats.BytesRead += delta.BytesRead
	fs.stats.BytesWritten += delta.BytesWritten
	fs.stats.BlocksRead += delta.BlocksRead
	fs.stats.FilesCreated += delta.FilesCreated
	fs.stats.FilesDeleted += delta.FilesDeleted
	fs.stats.Renames += delta.Renames
	fs.stats.OpenOps += delta.OpenOps
	fs.statMu.Unlock()
}

// Snapshot returns the cumulative I/O statistics.
func (fs *FS) Snapshot() Stats {
	fs.statMu.Lock()
	defer fs.statMu.Unlock()
	return fs.stats
}

// MkdirAll creates the directory at path together with any missing parents.
func (fs *FS) MkdirAll(path string) error {
	if err := fs.check(); err != nil {
		return err
	}
	p, err := cleanPath(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.mkdirAllLocked(p)
}

func (fs *FS) mkdirAllLocked(p string) error {
	if _, isFile := fs.files[p]; isFile {
		return fmt.Errorf("%w: %s", ErrNotDir, p)
	}
	if p != "/" {
		if err := fs.mkdirAllLocked(parentDir(p)); err != nil {
			return err
		}
	}
	fs.dirs[p] = struct{}{}
	return nil
}

// Create opens a new file for writing. The file becomes visible atomically
// when the returned writer is closed; parents are created as needed.
func (fs *FS) Create(path string) (*FileWriter, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	p, err := cleanPath(path)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[p]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, p)
	}
	if _, ok := fs.dirs[p]; ok {
		return nil, fmt.Errorf("%w: %s", ErrIsDirectory, p)
	}
	if err := fs.mkdirAllLocked(parentDir(p)); err != nil {
		return nil, err
	}
	return &FileWriter{fs: fs, path: p}, nil
}

// WriteFile creates path with the given contents in one call.
func (fs *FS) WriteFile(path string, data []byte) error {
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// FileWriter accumulates file contents; Close publishes them atomically.
type FileWriter struct {
	fs     *FS
	path   string
	buf    []byte
	closed bool
}

// Write appends p to the pending file contents.
func (w *FileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("hdfs: write to closed file %s", w.path)
	}
	if err := w.fs.check(); err != nil {
		return 0, err
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// Close publishes the file. A file that was never closed does not exist.
func (w *FileWriter) Close() error {
	if w.closed {
		return nil
	}
	if err := w.fs.check(); err != nil {
		return err
	}
	w.closed = true
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if _, ok := w.fs.files[w.path]; ok {
		return fmt.Errorf("%w: %s", ErrExists, w.path)
	}
	w.fs.files[w.path] = w.buf
	w.fs.addStats(Stats{BytesWritten: int64(len(w.buf)), FilesCreated: 1})
	return nil
}

// Open returns a reader over the file at path. Reading is metered in block
// units: touching any byte of a block counts the whole block as read, which
// mirrors how HDFS map tasks consume input splits.
func (fs *FS) Open(path string) (*FileReader, error) {
	p, data, err := fs.file(path)
	if err != nil {
		return nil, err
	}
	fs.addStats(Stats{OpenOps: 1})
	return &FileReader{fs: fs, path: p, data: data}, nil
}

// file returns the clean path and the contents of the file at path; a
// directory there is ErrIsDirectory, with its clean path.
func (fs *FS) file(path string) (string, []byte, error) {
	p, data, isFile, isDir, err := fs.lookup(path)
	switch {
	case err != nil:
		return "", nil, err
	case isDir:
		return p, nil, fmt.Errorf("%w: %s", ErrIsDirectory, p)
	case !isFile:
		return p, nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	return p, data, nil
}

// lookup returns the clean path and what is there: a file and its contents,
// a directory, or neither. It builds no error for a directory or a missing
// path, so Exists allocates nothing.
func (fs *FS) lookup(path string) (p string, data []byte, isFile, isDir bool, err error) {
	if err := fs.check(); err != nil {
		return "", nil, false, false, err
	}
	if p, err = cleanPath(path); err != nil {
		return "", nil, false, false, err
	}
	fs.mu.RLock()
	data, isFile = fs.files[p]
	_, isDir = fs.dirs[p]
	fs.mu.RUnlock()
	return p, data, isFile, isDir, nil
}

// ReadFile returns the full contents of the file at path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	// The size is known: one exact buffer, filled through the metered Read.
	buf := make([]byte, r.Size())
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// FileReader reads a published file.
type FileReader struct {
	fs      *FS
	path    string
	data    []byte
	off     int
	charged int // blocks [0, charged) are charged to stats
}

// Read implements io.Reader with block-granular accounting: a read charges
// the blocks it reaches that no earlier read did.
func (r *FileReader) Read(p []byte) (int, error) {
	if err := r.fs.check(); err != nil {
		return 0, err
	}
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	reached := (r.off + r.fs.blockSize - 1) / r.fs.blockSize
	r.fs.addStats(Stats{BytesRead: int64(n), BlocksRead: int64(reached - r.charged)})
	r.charged = reached
	return n, nil
}

// Size returns the file's size in bytes.
func (r *FileReader) Size() int64 { return int64(len(r.data)) }

// ReadAt reads len(p) bytes of the file at path from offset off, charging
// the bytes and every block they touch: the ranged read a map task reads
// its split with. As io.ReaderAt, a read that ends past the end of the
// file returns what is there with io.EOF.
func (fs *FS) ReadAt(path string, off int64, p []byte) (int, error) {
	path, data, err := fs.file(path)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("hdfs: negative offset %d reading %s", off, path)
	}
	n := copy(p, data[min(off, int64(len(data))):])
	if n > 0 {
		first, last := int(off)/fs.blockSize, (int(off)+n-1)/fs.blockSize
		fs.addStats(Stats{BytesRead: int64(n), BlocksRead: int64(last - first + 1)})
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (fs *FS) numBlocks(size int) int {
	if size == 0 {
		return 0
	}
	return (size + fs.blockSize - 1) / fs.blockSize
}

// Exists reports whether path names a file or directory.
func (fs *FS) Exists(path string) bool {
	_, _, isFile, isDir, err := fs.lookup(path)
	return err == nil && (isFile || isDir)
}

// Walk returns every file under dir (recursively), sorted by path.
func (fs *FS) Walk(dir string) ([]FileInfo, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	p, err := cleanPath(dir)
	if err != nil {
		return nil, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if _, ok := fs.dirs[p]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	prefix := p
	if prefix != "/" {
		prefix += "/"
	}
	var out []FileInfo
	for f, data := range fs.files {
		if strings.HasPrefix(f, prefix) {
			out = append(out, FileInfo{Path: f, Size: int64(len(data)), Blocks: fs.numBlocks(len(data))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// TotalSize sums the sizes of all files under dir.
func (fs *FS) TotalSize(dir string) (int64, error) {
	infos, err := fs.Walk(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, fi := range infos {
		total += fi.Size
	}
	return total, nil
}

// Rename atomically moves a file or directory subtree from src to dst. The
// destination must not exist; parents of dst are created as needed. This is
// the primitive behind the log mover's atomic hourly slide.
func (fs *FS) Rename(src, dst string) error {
	if err := fs.check(); err != nil {
		return err
	}
	s, err := cleanPath(src)
	if err != nil {
		return err
	}
	d, err := cleanPath(dst)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[d]; ok {
		return fmt.Errorf("%w: %s", ErrExists, d)
	}
	if _, ok := fs.dirs[d]; ok {
		return fmt.Errorf("%w: %s", ErrExists, d)
	}
	if err := fs.mkdirAllLocked(parentDir(d)); err != nil {
		return err
	}
	if data, ok := fs.files[s]; ok {
		delete(fs.files, s)
		fs.files[d] = data
		fs.addStats(Stats{Renames: 1})
		return nil
	}
	if _, ok := fs.dirs[s]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, s)
	}
	// Move the whole subtree.
	sPrefix := s + "/"
	moveFiles := make(map[string][]byte)
	for f, data := range fs.files {
		if strings.HasPrefix(f, sPrefix) {
			moveFiles[d+f[len(s):]] = data
			delete(fs.files, f)
		}
	}
	for f, data := range moveFiles {
		fs.files[f] = data
	}
	moveDirs := make([]string, 0)
	for dir := range fs.dirs {
		if dir == s || strings.HasPrefix(dir, sPrefix) {
			moveDirs = append(moveDirs, dir)
		}
	}
	for _, dir := range moveDirs {
		delete(fs.dirs, dir)
		fs.dirs[d+dir[len(s):]] = struct{}{}
	}
	fs.addStats(Stats{Renames: 1})
	return nil
}

// Delete removes the file or (when recursive) directory subtree at path.
func (fs *FS) Delete(path string, recursive bool) error {
	if err := fs.check(); err != nil {
		return err
	}
	p, err := cleanPath(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[p]; ok {
		delete(fs.files, p)
		fs.addStats(Stats{FilesDeleted: 1})
		return nil
	}
	if _, ok := fs.dirs[p]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	prefix := p + "/"
	var nFiles int64
	hasChildren := false
	for f := range fs.files {
		if strings.HasPrefix(f, prefix) {
			hasChildren = true
			if !recursive {
				break
			}
			delete(fs.files, f)
			nFiles++
		}
	}
	for d := range fs.dirs {
		if strings.HasPrefix(d, prefix) {
			hasChildren = true
			if recursive {
				delete(fs.dirs, d)
			}
		}
	}
	if hasChildren && !recursive {
		return fmt.Errorf("%w: %s", ErrNotEmpty, p)
	}
	if p != "/" {
		delete(fs.dirs, p)
	}
	fs.addStats(Stats{FilesDeleted: nFiles})
	return nil
}
