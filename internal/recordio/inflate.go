package recordio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
	"sync"
)

// The package's gzip reader: RFC 1952 members of RFC 1951 DEFLATE data,
// decoded straight from the file image in memory. Input bits come from a
// 64-bit buffer refilled eight bytes at a time, Huffman codes are read
// through lookup tables, and output goes into one flat buffer of
// inflateHistory+inflatePiece bytes that is handed on a piece at a time and
// then slid down to keep the last inflateHistory bytes a match may copy
// from. However large a member inflates, the reader holds that buffer and
// nothing more.
//
// It refuses what compress/gzip's multistream Reader refuses, each as
// ErrCorrupt: a bad header (magic, compression method 8, FEXTRA, FNAME and
// FCOMMENT — a string with its NUL at most 512 bytes — and FHCRC), a
// member whose CRC-32 or length disagrees with its trailer, block type 3,
// a dynamic header whose code is over-subscribed or incomplete (except a
// lone code of length 1, as zlib allows), a symbol with no code, a
// back-reference reaching before its member's first byte, a stored block
// whose LEN and NLEN disagree, a file that ends inside a member, and bytes
// after the last member that are not a whole member. The package's tests
// hold it to compress/gzip and compress/flate.

const (
	inflateHistory = 32 << 10  // DEFLATE's window: the farthest a match reaches back
	inflatePiece   = 256 << 10 // output handed on at a time, at most
	maxMatch       = 258       // the longest match DEFLATE can encode
)

// A Huffman table entry is a uint32:
//
//	bits 0-3   the code's length, the bits the symbol takes (0: no code)
//	bits 4-7   extra bits after the symbol, for lengths and distances
//	bits 8-9   kind: 0 for a length or a distance, or one of those below
//	bits 16-31 the literal byte, base length or base distance, or the
//	           code-length symbol
//
// A link entry in a primary table points at a subtable for the codes
// longer than the primary index: its bits 0-3 are the subtable's index
// width and bits 16-31 its offset. An entry of 0 has no code.
const (
	kindLiteral = 1 << 8
	kindEnd     = 2 << 8
	kindLink    = 3 << 8
	kindMask    = 3 << 8
)

// Primary index widths: the literal/length and distance tables resolve
// codes up to these lengths in one lookup.
const (
	litBits  = 10
	distBits = 8
	clenBits = 7 // code-length codes are at most 7 bits: no subtables
)

// huffman is the decoding table of one canonical prefix code.
type huffman struct {
	t       []uint32 // primary entries, then subtables
	primary uint
}

// litInfo, distInfo and clenInfo are the entry templates of each alphabet's
// symbols (RFC 1951 §3.2.5); 0 marks a symbol that must not appear.
var litInfo, distInfo, clenInfo = func() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for s := range 256 {
		lit[s] = kindLiteral | uint32(s)<<16
	}
	lit[256] = kindEnd
	base := uint32(3)
	for s := 257; s < 285; s++ {
		extra := uint32(0)
		if s >= 265 {
			extra = uint32(s-261) / 4
		}
		lit[s] = extra<<4 | base<<16
		base += 1 << extra
	}
	lit[285] = 258 << 16
	base = 1
	for s := range 30 {
		extra := uint32(0)
		if s >= 4 {
			extra = uint32(s)/2 - 1
		}
		dist[s] = extra<<4 | base<<16
		base += 1 << extra
	}
	for s := range clen {
		clen[s] = kindLiteral | uint32(s)<<16
	}
	return
}()

// fixedLit and fixedDist are the codes of a fixed-Huffman block (RFC 1951
// §3.2.6). Distance symbols 30 and 31 have codes but no meaning.
var fixedLit, fixedDist = func() (lit, dist huffman) {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	lit.build(lens[:], litInfo[:], litBits)
	for s := range 32 {
		lens[s] = 5
	}
	dist.build(lens[:32], distInfo[:], distBits)
	return
}()

// codeOrder is the order of the code-length code's lengths in a dynamic
// block header.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// build makes h the table of the canonical code whose symbols have the
// code lengths lens and the entry templates info, indexed by primary bits.
// It accepts what compress/flate accepts: a complete code, a single code
// of length 1, or no code at all (which fails when a symbol is read).
func (h *huffman) build(lens []uint8, info []uint32, primary uint) bool {
	var count [16]int
	for _, n := range lens {
		count[n]++
	}
	count[0] = 0
	left, used, longest := 1, 0, uint(0)
	for n := 1; n < 16; n++ {
		left = left<<1 - count[n]
		if left < 0 {
			return false // over-subscribed
		}
		if count[n] > 0 {
			used += count[n]
			longest = uint(n)
		}
	}
	if left > 0 && used > 0 && !(used == 1 && count[1] == 1) {
		return false // incomplete
	}
	var next [16]uint32
	code := uint32(0)
	for n := 1; n < 16; n++ {
		code = (code + uint32(count[n-1])) << 1
		next[n] = code
	}
	h.primary = primary
	size := 1 << primary
	h.t = h.t[:0]
	h.grow(size)
	if longest > primary {
		// Size each primary slot's subtable for its longest code.
		var width [1 << litBits]uint8
		nc := next
		for _, n := range lens {
			if uint(n) > primary {
				slot := reverse(nc[n], n) & uint32(size-1)
				nc[n]++
				width[slot] = max(width[slot], n-uint8(primary))
			}
		}
		for slot, w := range width[:size] {
			if w > 0 {
				h.t[slot] = kindLink | uint32(w) | uint32(len(h.t))<<16
				h.grow(1 << w)
			}
		}
	}
	for s, n := range lens {
		if n == 0 {
			continue
		}
		rev := reverse(next[n], n)
		next[n]++
		e := uint32(0)
		if info[s] != 0 {
			e = info[s] | uint32(n)
		}
		if uint(n) <= primary {
			for i := rev; i < uint32(size); i += 1 << n {
				h.t[i] = e
			}
			continue
		}
		link := h.t[rev&uint32(size-1)]
		sub := h.t[link>>16 : link>>16+1<<(link&15)]
		for i := rev >> primary; i < uint32(len(sub)); i += 1 << (uint(n) - primary) {
			sub[i] = e
		}
	}
	return true
}

// grow appends n zero entries to h.t, reusing its capacity.
func (h *huffman) grow(n int) {
	h.t = slices.Grow(h.t, n)[:len(h.t)+n]
	clear(h.t[len(h.t)-n:])
}

// reverse returns the n-bit code c with its bits in stream order.
func reverse(c uint32, n uint8) uint32 {
	return uint32(bits.Reverse16(uint16(c))) >> (16 - n)
}

var (
	errGzipHeader   = fmt.Errorf("%w: invalid gzip header", ErrCorrupt)
	errGzipChecksum = fmt.Errorf("%w: gzip member fails its CRC-32 or length", ErrCorrupt)
	errGzipEnd      = fmt.Errorf("%w: gzip data ends inside a member", ErrCorrupt)
)

// inflater decodes gzip members from in into out, handing each piece of
// output to sink as the buffer fills and at the end of each member.
type inflater struct {
	in    []byte
	pos   int    // next byte of in to load into bits
	bits  uint64 // loaded, unread bits, least significant first
	nbits uint

	out     []byte // inflateHistory + inflatePiece bytes
	w       int    // next byte of out to write
	flushed int    // out[flushed:w] is not handed on yet
	start   int    // the current member's first byte in out; negative once slid past
	crc     uint32 // of the member's output handed on
	size    uint32 // the member's output handed on, mod 2^32

	sink io.Writer

	walk             frameWalker
	lit, dist, clens huffman
	lens             [286 + 30]uint8
}

// inflaters keeps an inflater and its buffer per concurrent reader.
var inflaters = sync.Pool{New: func() any {
	return &inflater{out: make([]byte, inflateHistory+inflatePiece)}
}}

// reset points d at the input in and the output sink, with an empty window.
func (d *inflater) reset(in []byte, sink io.Writer) {
	d.in, d.pos, d.bits, d.nbits = in, 0, 0, 0
	d.w, d.flushed, d.start = 0, 0, 0
	d.sink = sink
}

// corruptAt reports malformed DEFLATE data near input byte pos.
func corruptAt(pos int) error {
	return fmt.Errorf("%w: corrupt deflate data near byte %d", ErrCorrupt, pos)
}

// refill loads input bytes into bits: eight at once when there are eight
// left, otherwise as many as there are, up to 56 bits.
func (d *inflater) refill() {
	if d.pos+8 <= len(d.in) {
		d.bits |= binary.LittleEndian.Uint64(d.in[d.pos:]) << d.nbits
		d.pos += int(63-d.nbits) >> 3
		d.nbits |= 56
		return
	}
	for d.nbits <= 56 && d.pos < len(d.in) {
		d.bits |= uint64(d.in[d.pos]) << d.nbits
		d.pos++
		d.nbits += 8
	}
}

// need makes sure n bits are loaded.
func (d *inflater) need(n uint) error {
	if d.nbits < n {
		d.refill()
		if d.nbits < n {
			return errGzipEnd
		}
	}
	return nil
}

// take consumes n loaded bits.
func (d *inflater) take(n uint) uint32 {
	v := uint32(d.bits & (1<<n - 1))
	d.bits >>= n
	d.nbits -= n
	return v
}

// align drops the bits left in the current byte and hands the whole bytes
// still loaded back to the input, so pos is at a byte boundary.
func (d *inflater) align() {
	d.pos -= int(d.nbits >> 3)
	d.bits, d.nbits = 0, 0
}

// sym reads one symbol of h and returns its entry.
func (d *inflater) sym(h *huffman) (uint32, error) {
	if d.nbits < 15 {
		d.refill()
	}
	e := h.t[d.bits&(1<<h.primary-1)]
	if e&kindMask == kindLink {
		e = h.t[e>>16+uint32(d.bits>>h.primary)&(1<<(e&15)-1)]
	}
	n := uint(e & 15)
	if n == 0 {
		return 0, corruptAt(d.pos)
	}
	if n > d.nbits {
		return 0, errGzipEnd
	}
	d.bits >>= n
	d.nbits -= n
	return e, nil
}

// flush hands on the output written since the last flush.
func (d *inflater) flush() error {
	p := d.out[d.flushed:d.w]
	if len(p) == 0 {
		return nil
	}
	d.flushed = d.w
	d.crc = crc32.Update(d.crc, crc32.IEEETable, p)
	d.size += uint32(len(p))
	_, err := d.sink.Write(p)
	return err
}

// slide flushes, then moves the last inflateHistory bytes of output to the
// front of the buffer.
func (d *inflater) slide() error {
	if err := d.flush(); err != nil {
		return err
	}
	n := copy(d.out, d.out[d.w-inflateHistory:d.w])
	d.start -= d.w - n
	d.w, d.flushed = n, n
	return nil
}

// gunzip hands sink the output of every member of the gzip file in, in
// order, each member's pieces before its trailer is checked.
func (d *inflater) gunzip() error {
	for {
		if err := d.header(); err != nil {
			return err
		}
		d.start, d.crc, d.size = d.w, 0, 0
		if err := d.inflate(); err != nil {
			return err
		}
		d.align()
		if len(d.in)-d.pos < 8 {
			return errGzipEnd
		}
		trailer := d.in[d.pos:]
		if binary.LittleEndian.Uint32(trailer) != d.crc || binary.LittleEndian.Uint32(trailer[4:]) != d.size {
			return errGzipChecksum
		}
		d.pos += 8
		if d.pos == len(d.in) {
			return nil
		}
	}
}

// header reads one member header (RFC 1952 §2.3) at pos, which is at a
// byte boundary with no bits loaded.
func (d *inflater) header() error {
	const (
		fhcrc    = 1 << 1
		fextra   = 1 << 2
		fname    = 1 << 3
		fcomment = 1 << 4
	)
	in := d.in[d.pos:]
	if len(in) < 10 || in[0] != 0x1f || in[1] != 0x8b || in[2] != 8 {
		return errGzipHeader
	}
	flg, p := in[3], 10
	if flg&fextra != 0 {
		if len(in) < p+2 {
			return errGzipHeader
		}
		p += 2 + int(binary.LittleEndian.Uint16(in[p:]))
		if len(in) < p {
			return errGzipHeader
		}
	}
	for _, f := range [2]byte{fname, fcomment} {
		if flg&f == 0 {
			continue
		}
		// compress/gzip reads a string into a 512-byte buffer: its NUL
		// must be among the first 512 bytes.
		n := bytes.IndexByte(in[p:min(len(in), p+512)], 0)
		if n < 0 {
			return errGzipHeader
		}
		p += n + 1
	}
	if flg&fhcrc != 0 {
		if len(in) < p+2 || binary.LittleEndian.Uint16(in[p:]) != uint16(crc32.ChecksumIEEE(in[:p])) {
			return errGzipHeader
		}
		p += 2
	}
	d.pos += p
	return nil
}

// inflate decodes one DEFLATE stream at pos, through its final block, and
// flushes its output.
func (d *inflater) inflate() error {
	for {
		if err := d.need(3); err != nil {
			return err
		}
		hdr := d.take(3)
		var err error
		switch hdr >> 1 {
		case 0:
			err = d.stored()
		case 1:
			err = d.block(&fixedLit, &fixedDist)
		case 2:
			if err = d.dynamic(); err == nil {
				err = d.block(&d.lit, &d.dist)
			}
		default:
			err = corruptAt(d.pos)
		}
		if err != nil {
			return err
		}
		if hdr&1 == 1 {
			return d.flush()
		}
	}
}

// stored copies a stored block (RFC 1951 §3.2.4) to the output.
func (d *inflater) stored() error {
	d.align()
	if len(d.in)-d.pos < 4 {
		return errGzipEnd
	}
	n := binary.LittleEndian.Uint16(d.in[d.pos:])
	if n != ^binary.LittleEndian.Uint16(d.in[d.pos+2:]) {
		return corruptAt(d.pos)
	}
	d.pos += 4
	for left := int(n); left > 0; {
		if d.w == len(d.out) {
			if err := d.slide(); err != nil {
				return err
			}
		}
		c := min(left, len(d.out)-d.w, len(d.in)-d.pos)
		if c == 0 {
			return errGzipEnd
		}
		copy(d.out[d.w:], d.in[d.pos:d.pos+c])
		d.w += c
		d.pos += c
		left -= c
	}
	return nil
}

// dynamic reads a dynamic block's code lengths (RFC 1951 §3.2.7) into
// d.lit and d.dist.
func (d *inflater) dynamic() error {
	if err := d.need(14); err != nil {
		return err
	}
	nlit := int(d.take(5)) + 257
	ndist := int(d.take(5)) + 1
	nclen := int(d.take(4)) + 4
	if nlit > 286 || ndist > 30 {
		return corruptAt(d.pos)
	}
	var clens [19]uint8
	for _, s := range codeOrder[:nclen] {
		if err := d.need(3); err != nil {
			return err
		}
		clens[s] = uint8(d.take(3))
	}
	if !d.clens.build(clens[:], clenInfo[:], clenBits) {
		return corruptAt(d.pos)
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := d.sym(&d.clens)
		if err != nil {
			return err
		}
		x := uint8(e >> 16)
		if x < 16 {
			lens[i] = x
			i++
			continue
		}
		rep, extra, v := 3, uint(2), uint8(0)
		switch x {
		case 16:
			if i == 0 {
				return corruptAt(d.pos)
			}
			v = lens[i-1]
		case 17:
			extra = 3
		case 18:
			rep, extra = 11, 7
		}
		if err := d.need(extra); err != nil {
			return err
		}
		rep += int(d.take(extra))
		if i+rep > len(lens) {
			return corruptAt(d.pos)
		}
		for end := i + rep; i < end; i++ {
			lens[i] = v
		}
	}
	if !d.lit.build(lens[:nlit], litInfo[:nlit], litBits) || !d.dist.build(lens[nlit:], distInfo[:ndist], distBits) {
		return corruptAt(d.pos)
	}
	return nil
}

// block decodes one Huffman-coded block's symbols up to its end-of-block
// code. It keeps the bit buffer and the output position in locals, and
// stores them back when it returns.
func (d *inflater) block(lit, dist *huffman) error {
	in, pos, bitbuf, nbits := d.in, d.pos, d.bits, d.nbits
	out, w, start := d.out, d.w, d.start
	lt, dt := lit.t, dist.t
	ltp, dtp := (*[1 << litBits]uint32)(lt), (*[1 << distBits]uint32)(dt)
	// Below limit there is room for the longest match, a second literal,
	// and the 8-byte stores a match is copied with, the first two always.
	limit := len(out) - maxMatch - 16
	var err error
	for {
		if w > limit {
			d.w = w
			if err = d.slide(); err != nil {
				break
			}
			w, start = d.w, d.start
		}
		// At least 56 bits: a literal/length code, its extra bits, a
		// distance code and its extra bits take 48 (15+5+15+13).
		if pos+8 <= len(in) {
			bitbuf |= binary.LittleEndian.Uint64(in[pos:]) << (nbits & 63)
			pos += int(63-nbits) >> 3
			nbits |= 56
		} else {
			for nbits <= 56 && pos < len(in) {
				bitbuf |= uint64(in[pos]) << (nbits & 63)
				pos++
				nbits += 8
			}
		}
		e := ltp[bitbuf&(1<<litBits-1)]
		if e&kindMask == kindLink {
			e = lt[e>>16+uint32(bitbuf>>litBits)&(1<<(e&15)-1)]
		}
		n := uint(e & 15)
		if n-1 >= nbits { // no code, or past the input's end
			err = d.badSymbol(n, pos)
			break
		}
		bitbuf >>= n & 63
		nbits -= n
		if e&kindMask == kindLiteral {
			out[w] = byte(e >> 16)
			w++
			// Most literals come in runs: take a second one without
			// going round the loop when its code is in the bits loaded.
			e = ltp[bitbuf&(1<<litBits-1)]
			if n = uint(e & 15); e&kindMask == kindLiteral && n <= nbits {
				bitbuf >>= n & 63
				nbits -= n
				out[w] = byte(e >> 16)
				w++
			}
			continue
		}
		if e&kindMask == kindEnd {
			break
		}
		extra := uint(e>>4) & 15
		if extra > nbits {
			err = errGzipEnd
			break
		}
		length := int(e>>16) + int(bitbuf&(1<<(extra&63)-1))
		bitbuf >>= extra & 63
		nbits -= extra

		e = dtp[bitbuf&(1<<distBits-1)]
		if e&kindMask == kindLink {
			e = dt[e>>16+uint32(bitbuf>>distBits)&(1<<(e&15)-1)]
		}
		n = uint(e & 15)
		extra = uint(e>>4) & 15
		if n == 0 || n+extra > nbits {
			err = d.badSymbol(n, pos)
			break
		}
		bitbuf >>= n & 63
		dist := int(e>>16) + int(bitbuf&(1<<(extra&63)-1))
		bitbuf >>= extra & 63
		nbits -= n + extra
		if dist > w-start {
			err = corruptAt(pos) // reaches before the member's first byte
			break
		}
		// Copy the match forward from dist bytes back, 8 bytes at a time
		// when no store reaches past the bytes its load has read; a
		// closer match is copied as doubling runs of what it has written.
		src, end := w-dist, w+length
		if dist >= 8 {
			binary.LittleEndian.PutUint64(out[w:], binary.LittleEndian.Uint64(out[src:]))
			binary.LittleEndian.PutUint64(out[w+8:], binary.LittleEndian.Uint64(out[src+8:]))
			for w, src = w+16, src+16; w < end; w, src = w+8, src+8 {
				binary.LittleEndian.PutUint64(out[w:], binary.LittleEndian.Uint64(out[src:]))
			}
			w = end
			continue
		}
		for w < end {
			w += copy(out[w:end], out[src:w])
		}
	}
	d.pos, d.bits, d.nbits, d.w = pos, bitbuf, nbits, w
	return err
}

// badSymbol is the error for a symbol whose code length n is 0 (no code)
// or more than the bits the input has left.
func (d *inflater) badSymbol(n uint, pos int) error {
	if n == 0 {
		return corruptAt(pos)
	}
	return errGzipEnd
}
