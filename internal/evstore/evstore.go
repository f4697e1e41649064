// Package evstore is a compact append-only evidence store: bulky analysis
// artifacts (visit records, DOM snapshots, screenshots, traffic exchanges)
// spill to disk as length-prefixed, checksummed records and are referenced
// back by a fixed-size Handle, so large corpus runs keep O(1) evidence in
// RAM (DESIGN.md §12).
//
// File layout:
//
//	[8]  header  magic "CBEVST1\n"
//	[9+] records, each
//	       [1]  kind      (caller-defined record type)
//	       [4]  length    (big-endian payload length)
//	       [4]  checksum  (CRC-32/IEEE of the payload)
//	       [n]  payload
//
// Records are self-framing, so the file can be scanned sequentially without
// an external index; a Handle (offset + length) addresses one record
// directly. Reads on a writable store go through the OS file (ReadAt after
// flush); a store opened read-only maps the file and serves zero-copy
// subslices of the mapping.
package evstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// magic is the 8-byte file header.
var magic = [8]byte{'C', 'B', 'E', 'V', 'S', 'T', '1', '\n'}

// headerSize is the offset of the first record.
const headerSize = 8

// recordHeaderSize frames every record: kind, length, checksum.
const recordHeaderSize = 1 + 4 + 4

// MaxRecordSize bounds one record's payload (64 MiB) — a corrupt length
// prefix must not drive a multi-gigabyte allocation.
const MaxRecordSize = 64 << 20

// Errors surfaced by the store.
var (
	// ErrBadMagic indicates the file is not an evidence store.
	ErrBadMagic = errors.New("evstore: bad magic")
	// ErrCorrupt indicates a record failed its checksum or framing.
	ErrCorrupt = errors.New("evstore: corrupt record")
	// ErrReadOnly indicates an append to a store opened with Open.
	ErrReadOnly = errors.New("evstore: store is read-only")
	// ErrClosed indicates use after Close.
	ErrClosed = errors.New("evstore: closed")
)

// Kind tags a record's type so mixed evidence shares one file.
type Kind uint8

// Record kinds used by the pipeline. The store itself is agnostic; these
// live here so producers and consumers agree on the tag space.
const (
	// KindAnalysis is a spilled message-analysis evidence record.
	KindAnalysis Kind = 1
	// KindExchange is a spilled network exchange (webnet traffic spill).
	KindExchange Kind = 2
	// KindSpanBatch is one message's span tree, stored by the tracestore
	// triage index as trace JSONL (obs.WriteJSONL for a single trace).
	KindSpanBatch Kind = 3
	// KindVerdict is one message's verdict row: outcome, landing domain,
	// cloak flags, and the per-visit evidence facts the tracestore
	// re-adjudicates from (tracestore.Verdict as JSON).
	KindVerdict Kind = 4
	// KindMetrics is a run's metrics snapshot ([]obs.Point as JSON).
	KindMetrics Kind = 5
	// KindTraceIndex is the tracestore's inverted index over its verdict
	// and span records; always the final record of a finalized segment.
	KindTraceIndex Kind = 6
	// KindIngestSpec is one submitted message spec in a continuous-ingest
	// log (ingest.Spec as JSON): the append-only record of accepted work.
	KindIngestSpec Kind = 7
	// KindIngestDone is one emitted verdict in a continuous-ingest log
	// (ingest.Emitted as JSON); a spec with a matching done record is
	// complete and is re-emitted — not re-analyzed — on resume.
	KindIngestDone Kind = 8
)

// Handle addresses one record. The zero Handle is invalid (the first
// record starts at offset headerSize), so "no evidence" needs no flag.
type Handle struct {
	Offset int64
	Len    uint32 // payload length, excluding the record header
}

// Valid reports whether the handle addresses a record.
func (h Handle) Valid() bool { return h.Offset >= headerSize }

// Store is an append-only evidence file. Append/Flush/At are safe for
// concurrent use; a read-only store additionally serves At from an mmap
// with no locking on the data path.
type Store struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer // nil on read-only stores
	size   int64         // file size including buffered bytes
	mapped []byte        // non-nil on read-only stores when mmap succeeded
	closed bool
}

// Create creates (or truncates) a writable store at path.
func Create(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.Write(magic[:]); err != nil {
		f.Close()
		return nil, err
	}
	return &Store{f: f, w: w, size: headerSize}, nil
}

// OpenAppend opens an existing store for appending: new records land after
// the current last byte. Used by the ingest journal, where a restarted
// daemon continues the same append-only log it recovered its state from.
func OpenAppend(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || hdr != magic {
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
		}
		return nil, ErrBadMagic
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	return &Store{f: f, w: w, size: st.Size()}, nil
}

// Open opens an existing store read-only, mapping it into memory when the
// platform supports it (reads are zero-copy subslices of the mapping).
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || hdr != magic {
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
		}
		return nil, ErrBadMagic
	}
	s := &Store{f: f, size: st.Size()}
	s.mapped = mmap(f, st.Size()) // nil on failure or unsupported platform
	return s, nil
}

// Append writes one record and returns its handle. The record is buffered;
// it is durable (and readable through At) after Flush or Close.
//
// Append does not retain payload: by the time it returns, the bytes have
// been copied into the store's write buffer or written to the file, so the
// caller may reuse or overwrite the slice at once.
//
//cblint:hotpath
func (s *Store) Append(kind Kind, payload []byte) (Handle, error) {
	if len(payload) > MaxRecordSize {
		return Handle{}, fmt.Errorf("evstore: payload %d exceeds max %d", len(payload), MaxRecordSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Handle{}, ErrClosed
	}
	if s.w == nil {
		return Handle{}, ErrReadOnly
	}
	var hdr [recordHeaderSize]byte
	hdr[0] = byte(kind)
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	h := Handle{Offset: s.size, Len: uint32(len(payload))}
	if _, err := s.w.Write(hdr[:]); err != nil {
		return Handle{}, err
	}
	if _, err := s.w.Write(payload); err != nil {
		return Handle{}, err
	}
	s.size += recordHeaderSize + int64(len(payload))
	return h, nil
}

// Flush pushes buffered records to the OS so At (and other readers of the
// underlying file) can see them.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.w == nil {
		return nil
	}
	return s.w.Flush()
}

// At reads the record a handle addresses, verifying kind framing and the
// payload checksum. On a read-only mmap-backed store the returned slice
// aliases the mapping (zero-copy) and must not be modified; on a writable
// store it is a private copy read after an implicit flush.
func (s *Store) At(h Handle) (Kind, []byte, error) {
	if !h.Valid() {
		return 0, nil, fmt.Errorf("%w: invalid handle", ErrCorrupt)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, nil, ErrClosed
	}
	end := h.Offset + recordHeaderSize + int64(h.Len)
	if end > s.size {
		s.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: handle beyond end of store", ErrCorrupt)
	}
	if s.mapped != nil {
		m := s.mapped
		s.mu.Unlock()
		return verifyRecord(m[h.Offset:end:end], h.Len, true)
	}
	if err := s.flushLocked(); err != nil {
		s.mu.Unlock()
		return 0, nil, err
	}
	buf := make([]byte, recordHeaderSize+int(h.Len))
	_, err := s.f.ReadAt(buf, h.Offset)
	s.mu.Unlock()
	if err != nil {
		return 0, nil, err
	}
	return verifyRecord(buf, h.Len, false)
}

// verifyRecord checks one framed record against the handle's length and the
// stored checksum. aliased marks a zero-copy mmap slice.
func verifyRecord(rec []byte, wantLen uint32, aliased bool) (Kind, []byte, error) {
	kind := Kind(rec[0])
	n := binary.BigEndian.Uint32(rec[1:5])
	sum := binary.BigEndian.Uint32(rec[5:9])
	if n != wantLen {
		return 0, nil, fmt.Errorf("%w: length mismatch (record %d, handle %d)", ErrCorrupt, n, wantLen)
	}
	payload := rec[recordHeaderSize:]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	_ = aliased
	return kind, payload, nil
}

// Each scans every record in append order, calling fn with each record's
// handle, kind, and payload. Return false to stop. The payload slice is
// only valid during the call on writable stores (the scan buffer is
// reused); on mmap-backed stores it aliases the mapping.
func (s *Store) Each(fn func(h Handle, kind Kind, payload []byte) bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	size := s.size
	mapped := s.mapped
	f := s.f
	s.mu.Unlock()

	if mapped != nil {
		off := int64(headerSize)
		for off < size {
			if off+recordHeaderSize > size {
				return fmt.Errorf("%w: truncated record header at %d", ErrCorrupt, off)
			}
			n := binary.BigEndian.Uint32(mapped[off+1 : off+5])
			if int64(n) > MaxRecordSize || off+recordHeaderSize+int64(n) > size {
				return fmt.Errorf("%w: record at %d overruns store", ErrCorrupt, off)
			}
			end := off + recordHeaderSize + int64(n)
			kind, payload, err := verifyRecord(mapped[off:end:end], n, true)
			if err != nil {
				return fmt.Errorf("record at %d: %w", off, err)
			}
			if !fn(Handle{Offset: off, Len: n}, kind, payload) {
				return nil
			}
			off = end
		}
		return nil
	}

	r := bufio.NewReaderSize(io.NewSectionReader(f, headerSize, size-headerSize), 1<<16)
	off := int64(headerSize)
	var hdr [recordHeaderSize]byte
	var buf []byte
	for off < size {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("%w: truncated record header at %d: %v", ErrCorrupt, off, err)
		}
		n := binary.BigEndian.Uint32(hdr[1:5])
		if int64(n) > MaxRecordSize || off+recordHeaderSize+int64(n) > size {
			return fmt.Errorf("%w: record at %d overruns store", ErrCorrupt, off)
		}
		if cap(buf) < recordHeaderSize+int(n) {
			buf = make([]byte, recordHeaderSize+int(n))
		}
		rec := buf[:recordHeaderSize+int(n)]
		copy(rec, hdr[:])
		if _, err := io.ReadFull(r, rec[recordHeaderSize:]); err != nil {
			return fmt.Errorf("%w: truncated payload at %d: %v", ErrCorrupt, off, err)
		}
		kind, payload, err := verifyRecord(rec, n, false)
		if err != nil {
			return fmt.Errorf("record at %d: %w", off, err)
		}
		if !fn(Handle{Offset: off, Len: n}, kind, payload) {
			return nil
		}
		off += recordHeaderSize + int64(n)
	}
	return nil
}

// Size returns the store's current size in bytes (including buffered,
// unflushed records).
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Close flushes and closes the store. A mapped store unmaps first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.w != nil {
		err = s.w.Flush()
	}
	if s.mapped != nil {
		munmap(s.mapped)
		s.mapped = nil
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
