// Package lsm implements the on-disk half of the live write path: leveled
// differential files beside a base ACE view. Sealed memview snapshots are
// flushed to level-0 delta files; size-tiered background compaction merges
// levels; a final fold rebuilds the base view over the union. Every file is
// a pagefile (v2, per-page checksums) on the view's simulated disk, so
// flushes, merges and folds charge I/O like every other path and inherit
// the fault-injection and degradation contracts.
//
// Each delta file holds one immutable level:
//
//	page 0:            header (magic, generation, region directory, bounds)
//	bloom region:      filter bits over the level's tombstone Seqs
//	insert region:     ItemFile of live inserted records, sorted by Seq
//	tombstone region:  ItemFile of tombstone records, sorted by Seq
//
// Tombstones carry the full deleted record, not just its Seq, so query
// planning can bound which key region a level's deletes affect. The
// header's per-dimension bounds let queries skip scanning levels disjoint
// from the predicate, and the bloom filter (loaded in memory when the level
// is opened) prunes per-draw tombstone probes down to the rare positive.
package lsm

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

// deltaMagic identifies a delta-level file; the trailing digit versions the
// layout.
const deltaMagic = "SVDELTA1"

// headerSize is the number of meaningful bytes in the header page.
const headerSize = 8 + 4 + 4 + 8 + 8*5 + 8 + record.NumDims*32

// dimBounds is a closed per-dimension bounding box over records; Lo > Hi
// means empty.
type dimBounds [record.NumDims][2]int64

func emptyBounds() dimBounds {
	var b dimBounds
	for d := range b {
		b[d][0], b[d][1] = 1<<63-1, -1<<63
	}
	return b
}

func (b *dimBounds) extend(rec *record.Record) {
	for d := 0; d < record.NumDims; d++ {
		c := rec.Coord(d)
		if c < b[d][0] {
			b[d][0] = c
		}
		if c > b[d][1] {
			b[d][1] = c
		}
	}
}

// overlaps reports whether any record inside the bounds could match q.
func (b *dimBounds) overlaps(q record.Box) bool {
	for d := 0; d < q.Dims() && d < record.NumDims; d++ {
		if b[d][0] > b[d][1] {
			return false // empty bounds
		}
		r := q.Dim(d)
		if r.Lo > b[d][1] || r.Hi < b[d][0] {
			return false
		}
	}
	return true
}

// overlapFraction estimates what fraction of uniformly spread points inside
// the bounds fall in q: the same crude interpolation the ACE tree's
// internal counts use, good enough for interleaving estimates (drift is
// tolerated by the merge loop).
func (b *dimBounds) overlapFraction(q record.Box) float64 {
	frac := 1.0
	for d := 0; d < q.Dims() && d < record.NumDims; d++ {
		if b[d][0] > b[d][1] {
			return 0
		}
		width := float64(b[d][1]) - float64(b[d][0]) + 1
		bounds := record.Range{Lo: b[d][0], Hi: b[d][1]}
		inter := bounds.Intersect(q.Dim(d))
		if inter.Empty() {
			return 0
		}
		frac *= inter.Width() / width
	}
	return frac
}

// level is one immutable on-disk delta level. All fields are written once
// by writeDelta/openDelta and never mutated, so levels are shared freely
// across streams and maintenance without locking.
type level struct {
	gen        uint64
	file       *pagefile.File
	path       string // "" for in-memory levels
	inserts    *pagefile.ItemFile
	tombs      *pagefile.ItemFile
	filter     *bloomFilter // nil when the level holds no tombstones
	nIns       int64
	nTombs     int64
	insBounds  dimBounds
	tombBounds dimBounds
}

// size is the level's total record count, the quantity the size-tiered
// compaction policy compares.
func (l *level) size() int64 { return l.nIns + l.nTombs }

// writeDelta writes a new delta level holding the given inserts and
// tombstones. A non-empty path creates an OS-backed pagefile; otherwise the
// level lives in simulated memory. Both slices are sorted by Seq in place
// unless already sorted: a sealed memview snapshot arrives sorted and stays
// readable by concurrent queries while it is written, so it must not be
// written to (sort.Slice makes no promise to leave sorted input alone).
func writeDelta(sim *iosim.Sim, path string, gen uint64, inserts, tombs []record.Record) (*level, error) {
	sortBySeq(inserts)
	sortBySeq(tombs)

	var f *pagefile.File
	var err error
	if path == "" {
		f = pagefile.NewMem(sim)
	} else if f, err = pagefile.Create(sim, path); err != nil {
		return nil, fmt.Errorf("lsm: creating delta file: %w", err)
	}
	ps := f.PageSize()
	if headerSize > ps {
		f.Close()
		return nil, fmt.Errorf("lsm: page size %d below delta header size %d", ps, headerSize)
	}

	lvl := &level{gen: gen, file: f, path: path,
		nIns: int64(len(inserts)), nTombs: int64(len(tombs)),
		insBounds: emptyBounds(), tombBounds: emptyBounds()}
	for i := range inserts {
		lvl.insBounds.extend(&inserts[i])
	}
	for i := range tombs {
		lvl.tombBounds.extend(&tombs[i])
	}

	// Header placeholder first (rewritten once the region layout is known).
	hdrBuf := make([]byte, ps)
	hdrPage, err := f.Append(hdrBuf)
	if err != nil {
		return nil, fmt.Errorf("lsm: writing delta header: %w", err)
	}

	// Bloom region over tombstone Seqs.
	var bloomStart int64
	var bloomWords int64
	if len(tombs) > 0 {
		lvl.filter = newBloom(len(tombs))
		for i := range tombs {
			lvl.filter.add(tombs[i].Seq)
		}
		bloomStart = f.NumPages()
		bloomWords = int64(len(lvl.filter.bits))
		page := make([]byte, ps)
		n := 0
		for _, w := range lvl.filter.bits {
			binary.LittleEndian.PutUint64(page[n:], w)
			n += 8
			if n+8 > ps {
				if _, err := f.Append(page); err != nil {
					return nil, fmt.Errorf("lsm: writing bloom region: %w", err)
				}
				for i := range page {
					page[i] = 0
				}
				n = 0
			}
		}
		if n > 0 {
			if _, err := f.Append(page); err != nil {
				return nil, fmt.Errorf("lsm: writing bloom region: %w", err)
			}
		}
	}

	writeRegion := func(recs []record.Record) (int64, *pagefile.ItemFile, error) {
		start := f.NumPages()
		itf := pagefile.NewItemFile(f, record.Size)
		w := itf.NewWriter()
		buf := make([]byte, record.Size)
		for i := range recs {
			recs[i].Marshal(buf)
			if err := w.Write(buf); err != nil {
				return 0, nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return 0, nil, err
		}
		return start, itf, nil
	}
	insStart, insFile, err := writeRegion(inserts)
	if err != nil {
		return nil, fmt.Errorf("lsm: writing insert region: %w", err)
	}
	tombStart, tombFile, err := writeRegion(tombs)
	if err != nil {
		return nil, fmt.Errorf("lsm: writing tombstone region: %w", err)
	}
	lvl.inserts, lvl.tombs = insFile, tombFile

	encodeHeader(hdrBuf, lvl, insStart, tombStart, bloomStart, bloomWords)
	if err := f.Write(hdrPage, hdrBuf); err != nil {
		return nil, fmt.Errorf("lsm: finalizing delta header: %w", err)
	}
	return lvl, nil
}

// sortBySeq sorts recs by Seq, leaving an already sorted slice unwritten.
func sortBySeq(recs []record.Record) {
	less := func(i, j int) bool { return recs[i].Seq < recs[j].Seq }
	if !sort.SliceIsSorted(recs, less) {
		sort.Slice(recs, less)
	}
}

func encodeHeader(dst []byte, l *level, insStart, tombStart, bloomStart, bloomWords int64) {
	copy(dst[0:8], deltaMagic)
	binary.LittleEndian.PutUint32(dst[8:12], 1) // layout version
	binary.LittleEndian.PutUint32(dst[12:16], bloomHashes)
	binary.LittleEndian.PutUint64(dst[16:24], l.gen)
	binary.LittleEndian.PutUint64(dst[24:32], uint64(l.nIns))
	binary.LittleEndian.PutUint64(dst[32:40], uint64(l.nTombs))
	binary.LittleEndian.PutUint64(dst[40:48], uint64(insStart))
	binary.LittleEndian.PutUint64(dst[48:56], uint64(tombStart))
	binary.LittleEndian.PutUint64(dst[56:64], uint64(bloomStart))
	binary.LittleEndian.PutUint64(dst[64:72], uint64(bloomWords))
	off := 72
	for _, b := range [2]dimBounds{l.insBounds, l.tombBounds} {
		for d := 0; d < record.NumDims; d++ {
			binary.LittleEndian.PutUint64(dst[off:], uint64(b[d][0]))
			binary.LittleEndian.PutUint64(dst[off+8:], uint64(b[d][1]))
			off += 16
		}
	}
}

// openDelta opens a stored delta level, loading its header and bloom
// filter (one sequential pass over the small metadata regions).
func openDelta(sim *iosim.Sim, path string) (*level, error) {
	f, err := pagefile.Open(sim, path)
	if err != nil {
		return nil, fmt.Errorf("lsm: opening delta file: %w", err)
	}
	lvl, err := loadDelta(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return lvl, nil
}

func loadDelta(f *pagefile.File, path string) (*level, error) {
	ps := f.PageSize()
	buf := make([]byte, ps)
	if err := f.Read(0, buf); err != nil {
		return nil, fmt.Errorf("lsm: reading delta header: %w", err)
	}
	if string(buf[0:8]) != deltaMagic {
		return nil, fmt.Errorf("lsm: %s is not a delta file", path)
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != 1 {
		return nil, fmt.Errorf("lsm: unsupported delta layout version %d", v)
	}
	lvl := &level{file: f, path: path}
	lvl.gen = binary.LittleEndian.Uint64(buf[16:24])
	lvl.nIns = int64(binary.LittleEndian.Uint64(buf[24:32]))
	lvl.nTombs = int64(binary.LittleEndian.Uint64(buf[32:40]))
	insStart := int64(binary.LittleEndian.Uint64(buf[40:48]))
	tombStart := int64(binary.LittleEndian.Uint64(buf[48:56]))
	bloomStart := int64(binary.LittleEndian.Uint64(buf[56:64]))
	bloomWords := int64(binary.LittleEndian.Uint64(buf[64:72]))
	off := 72
	for bi := range [2]int{} {
		var b dimBounds
		for d := 0; d < record.NumDims; d++ {
			b[d][0] = int64(binary.LittleEndian.Uint64(buf[off:]))
			b[d][1] = int64(binary.LittleEndian.Uint64(buf[off+8:]))
			off += 16
		}
		if bi == 0 {
			lvl.insBounds = b
		} else {
			lvl.tombBounds = b
		}
	}

	var err error
	if lvl.inserts, err = pagefile.OpenItemFile(f, record.Size, insStart, lvl.nIns); err != nil {
		return nil, fmt.Errorf("lsm: delta insert region: %w", err)
	}
	if lvl.tombs, err = pagefile.OpenItemFile(f, record.Size, tombStart, lvl.nTombs); err != nil {
		return nil, fmt.Errorf("lsm: delta tombstone region: %w", err)
	}
	if bloomWords > 0 {
		bits := make([]uint64, bloomWords)
		perPage := int64(ps / 8)
		for i := int64(0); i < bloomWords; {
			if err := f.Read(bloomStart+i/perPage, buf); err != nil {
				return nil, fmt.Errorf("lsm: reading bloom region: %w", err)
			}
			for n := 0; i < bloomWords && n+8 <= ps; n += 8 {
				bits[i] = binary.LittleEndian.Uint64(buf[n:])
				i++
			}
		}
		lvl.filter = bloomFromBits(bits)
	}
	return lvl, nil
}

// matchingInserts appends the level's inserts matching q to dst with one
// sequential scan of the insert region (skipped entirely when the level's
// bounds are disjoint from the predicate), charged to the given item-file
// view. Each page is read and checksum-verified into one pooled buffer;
// records are filtered on their encoded coordinates and only matches are
// decoded.
func (l *level) matchingInserts(itf *pagefile.ItemFile, q record.Box, dst []record.Record) ([]record.Record, error) {
	if l.nIns == 0 || !l.insBounds.overlaps(q) {
		return dst, nil
	}
	f := itf.File()
	buf := f.PageBuf()
	defer f.PutPageBuf(buf)
	perPage := int64(itf.PerPage())
	for p, left := itf.StartPage(), itf.Count(); left > 0; p++ {
		page, err := f.ReadPayload(p, buf)
		if err != nil {
			return dst, err
		}
		n := min(left, perPage)
		page = page[:n*record.Size]
		for off := 0; off < len(page); off += record.Size {
			if q.ContainsEncoded(page[off:]) {
				dst = append(dst, record.Record{})
				dst[len(dst)-1].Unmarshal(page[off:])
			}
		}
		left -= n
	}
	return dst, nil
}

// lookupTomb reports whether the level tombstones seq. The in-memory bloom
// filter answers almost every probe for free; a positive test pays a
// binary search of random reads over the sorted on-disk tombstone region,
// charged to the given item-file view.
func (l *level) lookupTomb(itf *pagefile.ItemFile, seq uint64) (bool, error) {
	if l.filter == nil || !l.filter.mayContain(seq) {
		return false, nil
	}
	lo, hi := int64(0), l.nTombs-1
	buf := make([]byte, record.Size)
	for lo <= hi {
		mid := lo + (hi-lo)/2
		if err := itf.Get(mid, buf); err != nil {
			return false, err
		}
		got := binary.LittleEndian.Uint64(buf[16:24]) // Seq field
		switch {
		case got == seq:
			return true, nil
		case got < seq:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return false, nil
}

// readAll appends every record of the given region to dst (a sequential
// scan on the level's own file, charged to the shared disk): the bulk read
// used by merges and folds.
func readAll(itf *pagefile.ItemFile, dst []record.Record) ([]record.Record, error) {
	r := itf.NewReader()
	var rec record.Record
	for {
		item, err := r.Next()
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		rec.Unmarshal(item)
		dst = append(dst, rec)
	}
}
