// Package wal is the workspace write-ahead log: an append-only sequence
// of checksummed records split across segment files. Every committed
// mutation batch is one record, appended and fsynced before the epoch
// it produces is published, so an acknowledged commit survives power
// loss; replay-on-open reapplies the committed batches past the last
// snapshot.
//
// # File format
//
// A segment file is a fixed header followed by records, all
// little-endian:
//
//	header:  magic "FAWAL001" (8) | version u32 | crc u32 | seq u64 | baseEpoch u64
//	record:  payloadLen u32 | crc u32 | epoch u64 | payload
//
// The header crc covers seq and baseEpoch; a record's crc covers its
// epoch and payload (CRC-32 Castagnoli). seq orders segments; baseEpoch
// is the workspace epoch the segment starts after — the first record in
// a segment carries epoch baseEpoch+1, and epochs increase by exactly 1
// across the whole log.
//
// # Torn tails
//
// Power loss can leave a partially-written final record: a short
// header, a short payload, or a payload whose checksum fails. The
// reader treats everything from the first bad record onward as the torn
// tail — those bytes were never acknowledged (the fsync barrier runs
// before publish) — truncates it logically, and reports it via
// ErrTornWrite in the segment's TornError. Recovery never appends to an
// existing segment: after replay a fresh segment is started, so torn
// garbage is never followed by live records within one segment.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"

	"fairassign/internal/vfs"
)

// Typed errors (match with errors.Is).
var (
	// ErrTornWrite marks a torn or corrupt record at the tail of a
	// segment: the record was cut mid-write by a crash (or bit-flipped at
	// rest) and is discarded. Recovery proceeds without it.
	ErrTornWrite = errors.New("wal: torn write")
	// ErrBadSegment marks a segment file whose header is missing,
	// truncated, or checksum-corrupt: no record in it can be trusted.
	ErrBadSegment = errors.New("wal: bad segment header")
	// ErrClosed is returned by Append/Sync after Close.
	ErrClosed = errors.New("wal: writer closed")
)

const (
	magic         = "FAWAL001"
	formatVersion = 1
	headerSize    = 8 + 4 + 4 + 8 + 8
	recHdrSize    = 4 + 4 + 8
	// maxRecordSize bounds a record payload; a torn length field cannot
	// make the reader allocate unbounded memory.
	maxRecordSize = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SegmentName returns the file name of the segment with the given
// sequence number: "wal-<seq as 16 hex digits>.fawal".
func SegmentName(seq uint64) string {
	return fmt.Sprintf("wal-%016x.fawal", seq)
}

// parseSegmentName inverts SegmentName; ok is false for other files.
func parseSegmentName(name string) (seq uint64, ok bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".fawal") {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".fawal")
	if len(hexpart) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Writer appends records to one segment file.
type Writer struct {
	f       vfs.File
	seq     uint64
	base    uint64
	next    uint64 // epoch the next record must carry
	closed  bool
	scratch []byte
}

// Create starts a new segment in dir with the given sequence number and
// base epoch. The header is written and fsynced (file and directory)
// before Create returns, so an empty segment is durable — a crash right
// after rotation leaves a well-formed log.
func Create(fs vfs.FS, dir string, seq, baseEpoch uint64) (*Writer, error) {
	name := path.Join(dir, SegmentName(seq))
	f, err := fs.Create(name)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint64(hdr[16:], seq)
	binary.LittleEndian.PutUint64(hdr[24:], baseEpoch)
	binary.LittleEndian.PutUint32(hdr[12:], crc32.Checksum(hdr[16:], crcTable))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: sync segment header: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: sync wal dir: %w", err)
	}
	return &Writer{f: f, seq: seq, base: baseEpoch, next: baseEpoch + 1}, nil
}

// Seq returns the segment's sequence number.
func (w *Writer) Seq() uint64 { return w.seq }

// Append writes one record. epoch must be exactly one past the previous
// record's (the segment's baseEpoch+1 for the first): the log encodes
// the workspace's commit order and a gap would make replay ambiguous.
// Append does not sync; call Sync before acknowledging the commit.
func (w *Writer) Append(epoch uint64, payload []byte) error {
	if w.closed {
		return ErrClosed
	}
	if epoch != w.next {
		return fmt.Errorf("wal: append epoch %d, want %d", epoch, w.next)
	}
	if len(payload) > maxRecordSize {
		return fmt.Errorf("wal: record payload %d bytes exceeds limit", len(payload))
	}
	need := recHdrSize + len(payload)
	if cap(w.scratch) < need {
		w.scratch = make([]byte, need)
	}
	rec := w.scratch[:need]
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[8:], epoch)
	copy(rec[recHdrSize:], payload)
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[8:], crcTable))
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	w.next = epoch + 1
	return nil
}

// Sync makes every appended record durable.
func (w *Writer) Sync() error {
	if w.closed {
		return ErrClosed
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Close closes the segment file without syncing. Idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// readPayload reads exactly plen bytes, growing the buffer in bounded
// chunks: a torn length field claiming far more data than the file
// holds costs only the bytes actually present, never a quarter-gigabyte
// up-front allocation.
func readPayload(r io.Reader, plen uint32) ([]byte, error) {
	const chunk = 1 << 16
	if plen <= chunk {
		p := make([]byte, plen)
		_, err := io.ReadFull(r, p)
		return p, err
	}
	p := make([]byte, 0, chunk)
	for remaining := int(plen); remaining > 0; {
		n := remaining
		if n > chunk {
			n = chunk
		}
		m := len(p)
		p = append(p, make([]byte, n)...)
		if _, err := io.ReadFull(r, p[m:]); err != nil {
			return nil, err
		}
		remaining -= n
	}
	return p, nil
}

// Record is one replayable entry: the payload of the batch that
// produced the given epoch.
type Record struct {
	Epoch   uint64
	Payload []byte
}

// Segment describes one segment file found in a log directory.
type Segment struct {
	Name string
	Seq  uint64
	// BaseEpoch is the epoch the segment starts after (from the header);
	// valid only after ReadSegment.
	BaseEpoch uint64
}

// ListSegments returns the segment files in dir ordered by sequence
// number. Non-segment files are ignored.
func ListSegments(fs vfs.FS, dir string) ([]Segment, error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var segs []Segment
	for _, n := range names {
		if seq, ok := parseSegmentName(n); ok {
			segs = append(segs, Segment{Name: n, Seq: seq})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// ReadHeader reads and verifies just a segment's header, returning its
// sequence number and base epoch. Rotation uses it to decide which
// segments a retained snapshot still needs, without decoding records.
func ReadHeader(fs vfs.FS, dir, name string) (seq, baseEpoch uint64, err error) {
	f, err := fs.Open(path.Join(dir, name))
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: %s: short header", ErrBadSegment, name)
	}
	if string(hdr[:8]) != magic {
		return 0, 0, fmt.Errorf("%w: %s: bad magic", ErrBadSegment, name)
	}
	if crc := binary.LittleEndian.Uint32(hdr[12:]); crc != crc32.Checksum(hdr[16:], crcTable) {
		return 0, 0, fmt.Errorf("%w: %s: header checksum mismatch", ErrBadSegment, name)
	}
	return binary.LittleEndian.Uint64(hdr[16:]), binary.LittleEndian.Uint64(hdr[24:]), nil
}

// SegmentData is the decoded contents of one segment.
type SegmentData struct {
	Seq       uint64
	BaseEpoch uint64
	Records   []Record
	// TornError is non-nil when the segment ended in a torn or corrupt
	// record (wrapping ErrTornWrite); Records holds the intact prefix.
	TornError error
	// TornOffset is the file offset of the first discarded byte when
	// TornError is set.
	TornOffset int64
}

// ReadSegment decodes one segment file. A bad header returns
// ErrBadSegment. A torn or corrupt record ends decoding: the intact
// record prefix is returned with TornError set (wrapping ErrTornWrite)
// rather than failing the read — the torn tail was never acknowledged.
func ReadSegment(fs vfs.FS, dir, name string) (*SegmentData, error) {
	f, err := fs.Open(path.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)

	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %s: short header", ErrBadSegment, name)
	}
	if string(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrBadSegment, name)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != formatVersion {
		return nil, fmt.Errorf("%w: %s: unsupported version %d", ErrBadSegment, name, v)
	}
	if crc := binary.LittleEndian.Uint32(hdr[12:]); crc != crc32.Checksum(hdr[16:], crcTable) {
		return nil, fmt.Errorf("%w: %s: header checksum mismatch", ErrBadSegment, name)
	}
	sd := &SegmentData{
		Seq:       binary.LittleEndian.Uint64(hdr[16:]),
		BaseEpoch: binary.LittleEndian.Uint64(hdr[24:]),
	}
	if got, ok := parseSegmentName(name); ok && got != sd.Seq {
		return nil, fmt.Errorf("%w: %s: header seq %d does not match name", ErrBadSegment, name, sd.Seq)
	}

	off := int64(headerSize)
	want := sd.BaseEpoch + 1
	for {
		var rh [recHdrSize]byte
		n, err := io.ReadFull(r, rh[:])
		if err == io.EOF {
			return sd, nil // clean end
		}
		if err != nil {
			sd.TornError = fmt.Errorf("%w: %s: short record header at offset %d", ErrTornWrite, name, off)
			sd.TornOffset = off
			return sd, nil
		}
		plen := binary.LittleEndian.Uint32(rh[0:])
		crc := binary.LittleEndian.Uint32(rh[4:])
		epoch := binary.LittleEndian.Uint64(rh[8:])
		if plen > maxRecordSize {
			sd.TornError = fmt.Errorf("%w: %s: implausible record length %d at offset %d", ErrTornWrite, name, plen, off)
			sd.TornOffset = off
			return sd, nil
		}
		payload, err := readPayload(r, plen)
		if err != nil {
			sd.TornError = fmt.Errorf("%w: %s: short record payload at offset %d", ErrTornWrite, name, off)
			sd.TornOffset = off
			return sd, nil
		}
		sum := crc32.Checksum(rh[8:], crcTable)
		sum = crc32.Update(sum, crcTable, payload)
		if sum != crc {
			sd.TornError = fmt.Errorf("%w: %s: record checksum mismatch at offset %d", ErrTornWrite, name, off)
			sd.TornOffset = off
			return sd, nil
		}
		if epoch != want {
			sd.TornError = fmt.Errorf("%w: %s: record epoch %d at offset %d, want %d", ErrTornWrite, name, epoch, off, want)
			sd.TornOffset = off
			return sd, nil
		}
		sd.Records = append(sd.Records, Record{Epoch: epoch, Payload: payload})
		want = epoch + 1
		off += int64(n) + int64(plen)
	}
}
