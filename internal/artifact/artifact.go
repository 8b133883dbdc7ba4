// Package artifact is a content-addressed store for pipeline stage
// outputs. A Store keeps an in-memory LRU tier of decoded values,
// bounded by their encoded size, in front of an optional on-disk tier
// of encoded bytes; entries are addressed by the caller's content key
// (hash of a stage's declared inputs plus its declared config-key
// fields, see internal/core), so identical preop work is computed once
// and the one resident value is shared, read-only, by every session in
// the process. Bytes exist only while a value crosses the disk
// boundary: a miss encodes once (to hash, size and write the value), a
// disk read decodes once.
//
// The store is an accelerator, never an authority: a corrupt,
// truncated, or concurrently rewritten disk entry is detected by a
// checksum frame, and one whose frame passes but whose payload no
// longer decodes by the caller's decoder; both are deleted and the
// value recomputed. Value deduplicates concurrent computations of the
// same key so N sessions sharing a preop volume pay for its stages
// once.
package artifact

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Options configures a Store.
type Options struct {
	// MaxMemoryBytes bounds the in-memory tier by the encoded size of
	// the resident values (a decoded value occupies about as much),
	// evicted least-recently-used. Zero selects DefaultMaxMemoryBytes;
	// negative disables the memory tier entirely (every hit re-reads
	// and decodes the disk tier).
	MaxMemoryBytes int64

	// Dir, when non-empty, enables the on-disk tier rooted at that
	// directory (created if needed). Disk entries survive process
	// restarts and are shared between Stores pointed at the same
	// directory; they are never evicted by the LRU bound.
	Dir string
}

// DefaultMaxMemoryBytes bounds the memory tier when Options leaves
// MaxMemoryBytes zero.
const DefaultMaxMemoryBytes = 256 << 20

// Stats is a point-in-time snapshot of the store's counters — the one
// count of its traffic, read by the admin surface's /artifacts and by
// the benchmark.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	// DiskFaults counts disk-tier operations that failed (write,
	// rename, quarantine removal) and well-framed entries quarantined
	// because their payload did not decode. The tier is best-effort, so
	// faults never surface as errors; a persistently climbing count
	// means the cache directory is read-only, full, or written by an
	// incompatible build.
	DiskFaults int64 `json:"disk_faults"`
}

// Store is a two-tier content-addressed cache. All methods are safe
// for concurrent use. Values returned by Value and GetOrCompute are
// shared between callers and must be treated as read-only.
type Store struct {
	dir string
	max int64

	mu       sync.Mutex
	entries  map[string]*list.Element // key -> *memEntry element
	lru      *list.List               // front = most recently used
	bytes    int64
	inflight map[string]*flight
	stats    Stats
}

// Sum is the content hash of a value: the SHA-256 of its encoding,
// taken once when the value is encoded or read from disk.
type Sum [sha256.Size]byte

// memEntry is one resident value with the hash and length of its
// encoding; size is what the memory bound accounts.
type memEntry struct {
	key  string
	val  any
	sum  Sum
	size int64
}

// flight tracks one in-progress computation; followers wait on done
// and share the leader's entry, or retry when the leader failed.
type flight struct {
	done chan struct{}
	memEntry
	err error
}

// New opens a Store. The disk directory (when configured) is created
// if needed; a directory that cannot be created is an error because a
// silently memory-only cache would defeat cross-process sharing.
func New(opts Options) (*Store, error) {
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("artifact: cache dir: %w", err)
		}
	}
	max := opts.MaxMemoryBytes
	if max == 0 {
		max = DefaultMaxMemoryBytes
	}
	return &Store{
		dir:      opts.Dir,
		max:      max,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*flight),
	}, nil
}

// GetOrCompute is Value for callers whose artifacts are already bytes
// (the encoding of a byte slice is itself) and who have no context: it
// waits out a concurrent computation of the key however long it takes.
func (s *Store) GetOrCompute(key string, compute func() ([]byte, error)) (data []byte, hit bool, err error) {
	same := func(b []byte) []byte { return b }
	data, _, hit, err = value(nil, s, key, compute, same, func(b []byte) ([]byte, error) { return b, nil })
	return data, hit, err
}

// Value returns the value stored under key with the content hash of
// its encoding, computing and storing it on a miss. hit reports whether
// the value was served from the store (memory, disk, or a concurrent
// computation of the same key) rather than by this call's own compute.
// A memory hit returns the resident value itself; a disk hit is decoded
// once and the decoded value becomes resident; a miss returns what
// compute returned, and encodes it once to hash it, size it and write
// it to the disk tier. A compute error is returned to the caller whose
// compute failed and nothing is stored; callers waiting on that
// computation do not inherit the error (it may be scoped to the failed
// caller's context) — each retries with its own compute. A caller
// waiting on another's computation gives up with ctx.Err() when ctx ends
// first; the computation itself runs on under its own caller. Every
// caller of one key must pass the same T.
func Value[T any](ctx context.Context, s *Store, key string, compute func() (T, error),
	encode func(T) []byte, decode func([]byte) (T, error)) (v T, sum Sum, hit bool, err error) {
	return value(ctx, s, key, compute, encode, decode)
}

// value is Value with an optional context: a nil ctx never abandons a
// wait.
func value[T any](ctx context.Context, s *Store, key string, compute func() (T, error),
	encode func(T) []byte, decode func([]byte) (T, error)) (v T, sum Sum, hit bool, err error) {
	var abandon <-chan struct{}
	if ctx != nil {
		abandon = ctx.Done()
	}
	if key == "" {
		return v, sum, false, ErrEmptyKey
	}
	for {
		s.mu.Lock()
		if el, ok := s.entries[key]; ok {
			s.lru.MoveToFront(el)
			e := el.Value.(*memEntry)
			s.mu.Unlock()
			s.hit()
			return e.val.(T), e.sum, true, nil
		}
		if fl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-fl.done:
			case <-abandon:
				return v, sum, false, ctx.Err()
			}
			if fl.err != nil {
				// The leader failed; each waiter retries its own
				// compute rather than inheriting a possibly
				// context-scoped error from another session.
				continue
			}
			s.hit()
			return fl.val.(T), fl.sum, true, nil
		}
		fl := &flight{done: make(chan struct{}), memEntry: memEntry{key: key}}
		s.inflight[key] = fl
		s.mu.Unlock()

		hit, err = fill(s, fl, compute, encode, decode)
		if err != nil {
			return v, sum, false, err
		}
		return fl.val.(T), fl.sum, hit, nil
	}
}

// errAbandoned is what the waiters of a flight see when its leader's
// decode, compute, encode or store step panicked: a failed leader, so
// each retries.
var errAbandoned = errors.New("artifact: computation abandoned by a panic")

// fill resolves one flight: disk probe and decode, then compute,
// encode and store. A panic propagates to the leader's caller; the
// deferred release then hands the waiters errAbandoned, which every
// return overwrites.
func fill[T any](s *Store, fl *flight, compute func() (T, error),
	encode func(T) []byte, decode func([]byte) (T, error)) (hit bool, err error) {
	defer func() {
		fl.err = err
		s.mu.Lock()
		delete(s.inflight, fl.key)
		s.mu.Unlock()
		close(fl.done)
	}()
	err = errAbandoned

	if data, sum, ok := s.readDisk(fl.key); ok {
		if v, derr := decode(data); derr == nil {
			fl.val, fl.sum, fl.size = v, sum, int64(len(data))
			s.admit(&fl.memEntry)
			s.hit()
			return true, nil
		}
		// The frame is intact but the payload is not what this build
		// encodes: quarantine it like a bad frame, so the recomputed
		// value below replaces it for every later reader.
		s.fault()
		s.removeEntry(fl.key)
	}

	// compute's error gets its own name: err must stay errAbandoned
	// until a return, or a panic in encode or the store would release
	// the waiters with a nil error and no value.
	v, cerr := compute()
	if cerr != nil {
		return false, cerr
	}
	data := encode(v)
	fl.val, fl.sum, fl.size = v, sha256.Sum256(data), int64(len(data))
	s.admit(&fl.memEntry)
	s.writeDisk(fl.key, data, fl.sum)
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
	return false, nil
}

// hit counts one lookup served from the store.
func (s *Store) hit() {
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
}

// admit inserts an entry into the memory tier and evicts down to the
// byte bound. An entry larger than the whole bound is not admitted (it
// would evict everything and then itself never fit).
func (s *Store) admit(e *memEntry) {
	if s.max < 0 || e.size > s.max {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[e.key]; ok {
		// Another flight (or a disk promote) raced us in; keep the
		// incumbent so every caller shares one value.
		s.lru.MoveToFront(el)
		return
	}
	s.entries[e.key] = s.lru.PushFront(e)
	s.bytes += e.size
	for s.bytes > s.max {
		back := s.lru.Back()
		if back == nil {
			break
		}
		old := back.Value.(*memEntry)
		s.lru.Remove(back)
		delete(s.entries, old.key)
		s.bytes -= old.size
		s.stats.Evictions++
	}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	return st
}

// Disk tier. Each entry is one file framed as
//
//	"BART" | u32 version | u64 payload length | 32-byte sha256 | payload
//
// written atomically (temp + rename). readDisk verifies the frame end
// to end; any mismatch — short file, wrong magic, bad length, bad
// checksum — deletes the file and reports a miss, so a torn or
// corrupted entry degrades to recomputation, never to bad data.

const (
	diskMagic   = "BART"
	diskVersion = 1
	headerLen   = 4 + 4 + 8 + sha256.Size
)

// entryFile names the disk entry for key; keys are hashed so
// arbitrary key strings stay filesystem-safe.
func (s *Store) entryFile(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".art")
}

// readDisk returns the payload of key's disk entry and its checksum,
// which is the payload's content hash.
func (s *Store) readDisk(key string) ([]byte, Sum, bool) {
	if s.dir == "" {
		return nil, Sum{}, false
	}
	raw, err := os.ReadFile(s.entryFile(key))
	if err != nil {
		return nil, Sum{}, false
	}
	data, sum, ok := decodeFrame(raw)
	if !ok {
		s.removeEntry(key)
	}
	return data, sum, ok
}

// removeEntry quarantines a bad disk entry so the next reader
// recomputes without re-verifying a known-broken file; if the removal
// fails the checks keep rejecting the entry anyway.
func (s *Store) removeEntry(key string) {
	if err := os.Remove(s.entryFile(key)); err != nil {
		s.fault()
	}
}

// fault records a failed best-effort disk operation.
func (s *Store) fault() {
	s.mu.Lock()
	s.stats.DiskFaults++
	s.mu.Unlock()
}

func (s *Store) writeDisk(key string, data []byte, sum Sum) {
	if s.dir == "" {
		return
	}
	frame := encodeFrame(data, sum)
	// Write failures (read-only checkout, full disk) are dropped: the
	// disk tier is an accelerator, and the memory tier already holds
	// the value.
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		s.fault()
		return
	}
	_, werr := tmp.Write(frame)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		s.fault()
		if rerr := os.Remove(tmp.Name()); rerr != nil {
			s.fault()
		}
		return
	}
	if err := os.Rename(tmp.Name(), s.entryFile(key)); err != nil {
		s.fault()
		if rerr := os.Remove(tmp.Name()); rerr != nil {
			s.fault()
		}
	}
}

func encodeFrame(data []byte, sum Sum) []byte {
	frame := make([]byte, headerLen+len(data))
	copy(frame, diskMagic)
	binary.LittleEndian.PutUint32(frame[4:], diskVersion)
	binary.LittleEndian.PutUint64(frame[8:], uint64(len(data)))
	copy(frame[16:], sum[:])
	copy(frame[headerLen:], data)
	return frame
}

func decodeFrame(raw []byte) ([]byte, Sum, bool) {
	if len(raw) < headerLen || string(raw[:4]) != diskMagic {
		return nil, Sum{}, false
	}
	if binary.LittleEndian.Uint32(raw[4:]) != diskVersion {
		return nil, Sum{}, false
	}
	n := binary.LittleEndian.Uint64(raw[8:])
	if n != uint64(len(raw)-headerLen) {
		return nil, Sum{}, false
	}
	data := raw[headerLen:]
	sum := Sum(sha256.Sum256(data))
	if !bytes.Equal(sum[:], raw[16:headerLen]) {
		return nil, Sum{}, false
	}
	return data, sum, true
}

// ErrEmptyKey rejects lookups with an empty key, which would collide
// every caller that forgot to compose one.
var ErrEmptyKey = errors.New("artifact: empty cache key")

// Key composes a content key from parts: the hex sha256 over the
// length-prefixed concatenation, so no part can alias a boundary of
// its neighbor.
func Key(parts ...[]byte) string {
	size := 0
	for _, p := range parts {
		size += 8 + len(p)
	}
	buf := make([]byte, 0, size)
	for _, p := range parts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
