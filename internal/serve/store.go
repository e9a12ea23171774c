// Package serve is the simulation-as-a-service layer: a disk-backed,
// content-addressed result store that the experiment engine's cache
// reads through, a priority + per-client fair job scheduler with
// cross-client deduplication, and the HTTP/SSE API that cmd/udpsimd
// exposes. The daemon turns the one-shot CLI workflow (whose result
// cache dies with the process) into a persistent service: many clients
// share one warm program-image cache and one on-disk result corpus, so
// a 10-workload × 10-mechanism design-space sweep is simulated at most
// once, ever, per store.
package serve

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"udpsim/internal/obs"
	"udpsim/internal/sim"
)

// Store layout under the root directory:
//
//	objects/<aa>/<addr>      committed records (aa = first address byte)
//	tmp/                     in-progress writes (atomic tmp+rename)
//	quarantine/              corrupt records moved aside, never served
//
// A record is a one-line JSON header followed by the payload bytes:
//
//	{"v":1,"key":"…","len":N,"sha256":"…","saved_unix":…}\n
//	<N bytes of payload: JSON-encoded sim.Result>
//
// The header pins the payload length (catches truncation) and its
// SHA-256 (catches bit flips); the filename is the SHA-256 of the
// *key* (content addressing), cross-checked against the header's key
// on read so a misfiled record can never serve the wrong result.

// storeVersion is the record format version; bump on incompatible
// changes (old versions are quarantined, i.e. recomputed).
const storeVersion = 1

// recordHeader is the first line of every record file.
type recordHeader struct {
	V         int    `json:"v"`
	Key       string `json:"key"`
	Len       int    `json:"len"`
	SHA256    string `json:"sha256"`
	SavedUnix int64  `json:"saved_unix"`
}

// ResultAddr returns the content address (hex SHA-256) of a canonical
// result-cache key — the {key} component of GET /v1/results/{key}.
func ResultAddr(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Store is the disk-backed, content-addressed result store with an
// in-memory LRU read layer. All methods are safe for concurrent use.
// It implements experiments.ResultStore, so passing it as
// experiments.Options.Store makes every engine cache miss of that run
// read through it.
type Store struct {
	dir string
	log *slog.Logger

	mu       sync.Mutex
	lruCap   int64                    // byte budget for cached payloads
	lruBytes int64                    // payload bytes currently cached
	lru      *list.List               // front = most recently used
	lruIdx   map[string]*list.Element // addr → element
}

type lruEntry struct {
	addr string
	key  string
	res  sim.Result
	size int64 // payload (JSON) bytes, the unit the capacity bounds
}

// DefaultCacheBytes bounds the in-memory layer when OpenStore is given
// a non-positive capacity: 64 MiB holds a full paper-scale sweep grid
// hot (a Result payload is a few KB) without surprising a small host.
const DefaultCacheBytes int64 = 64 << 20

// OpenStore opens (creating if needed) a result store rooted at dir.
// cacheBytes budgets the in-memory LRU read layer in payload bytes
// (<= 0 means DefaultCacheBytes; cmd/udpsimd exposes it as
// -store-cache-mb). Leftover tmp files from a crashed writer are
// removed; committed records are validated lazily on first read.
func OpenStore(dir string, cacheBytes int64, log *slog.Logger) (*Store, error) {
	if cacheBytes <= 0 {
		cacheBytes = DefaultCacheBytes
	}
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	for _, sub := range []string{"objects", "tmp", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: opening store %s: %w", dir, err)
		}
	}
	// A tmp file can only be left by a writer that died before its
	// rename; its record was never visible, so deleting it is safe.
	if stale, err := filepath.Glob(filepath.Join(dir, "tmp", "*")); err == nil {
		for _, p := range stale {
			_ = os.Remove(p)
		}
	}
	obs.StoreCacheCapacityBytes.Set(float64(cacheBytes))
	return &Store{
		dir:    dir,
		log:    log,
		lruCap: cacheBytes,
		lru:    list.New(),
		lruIdx: map[string]*list.Element{},
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) objectPath(addr string) string {
	return filepath.Join(s.dir, "objects", addr[:2], addr)
}

// Load returns the stored result for a canonical cache key: LRU first,
// then disk. A corrupt on-disk record is quarantined and reported as a
// miss so the caller recomputes (and re-Saves) it. The error return is
// reserved for store I/O failures.
func (s *Store) Load(key string) (sim.Result, bool, error) {
	addr := ResultAddr(key)
	if r, ok := s.lruGet(addr); ok {
		return r, true, nil
	}
	key2, r, size, ok, err := s.loadDisk(addr)
	if err != nil || !ok {
		return sim.Result{}, false, err
	}
	if key2 != key {
		// SHA-256 collision or a record filed under the wrong name;
		// either way it is not the result for this key.
		s.quarantine(addr, fmt.Sprintf("key mismatch: record key %q does not hash to its address", key2))
		return sim.Result{}, false, nil
	}
	s.lruPut(addr, key, r, size)
	return r, true, nil
}

// LoadAddr returns the record at a content address (for the HTTP
// GET /v1/results/{key} path, where the client holds the address, not
// the full canonical key).
func (s *Store) LoadAddr(addr string) (key string, r sim.Result, ok bool, err error) {
	if !validAddr(addr) {
		return "", sim.Result{}, false, nil
	}
	s.mu.Lock()
	if el, hit := s.lruIdx[addr]; hit {
		e := el.Value.(*lruEntry)
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return e.key, e.res, true, nil
	}
	s.mu.Unlock()
	key, r, size, ok, err := s.loadDisk(addr)
	if err != nil || !ok {
		return "", sim.Result{}, false, err
	}
	if ResultAddr(key) != addr {
		s.quarantine(addr, "key mismatch: record key does not hash to its address")
		return "", sim.Result{}, false, nil
	}
	s.lruPut(addr, key, r, size)
	return key, r, true, nil
}

func validAddr(addr string) bool {
	if len(addr) != sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(addr)
	return err == nil
}

// loadDisk reads and verifies the record at addr, returning the
// payload size for LRU accounting. Corrupt records are quarantined and
// reported as a miss.
func (s *Store) loadDisk(addr string) (string, sim.Result, int64, bool, error) {
	f, err := os.Open(s.objectPath(addr))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return "", sim.Result{}, 0, false, nil
		}
		return "", sim.Result{}, 0, false, fmt.Errorf("serve: store read %s: %w", addr, err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	headerLine, err := br.ReadBytes('\n')
	if err != nil {
		s.quarantine(addr, fmt.Sprintf("unreadable header: %v", err))
		return "", sim.Result{}, 0, false, nil
	}
	var h recordHeader
	if err := json.Unmarshal(headerLine, &h); err != nil || h.V != storeVersion || h.Len < 0 {
		s.quarantine(addr, "malformed header")
		return "", sim.Result{}, 0, false, nil
	}
	payload, err := io.ReadAll(io.LimitReader(br, int64(h.Len)+1))
	if err != nil || len(payload) != h.Len {
		s.quarantine(addr, fmt.Sprintf("payload length %d != recorded %d (truncated or padded)", len(payload), h.Len))
		return "", sim.Result{}, 0, false, nil
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.SHA256 {
		s.quarantine(addr, "payload checksum mismatch (bit flip)")
		return "", sim.Result{}, 0, false, nil
	}
	var r sim.Result
	if err := json.Unmarshal(payload, &r); err != nil {
		s.quarantine(addr, fmt.Sprintf("payload decode: %v", err))
		return "", sim.Result{}, 0, false, nil
	}
	return h.Key, r, int64(len(payload)), true, nil
}

// quarantine moves a corrupt record out of objects/ so it is never
// served again; the next Load of its key recomputes and rewrites it.
func (s *Store) quarantine(addr, reason string) {
	dst := filepath.Join(s.dir, "quarantine",
		fmt.Sprintf("%s.%d.corrupt", addr, time.Now().UnixNano()))
	if err := os.Rename(s.objectPath(addr), dst); err != nil {
		// Already gone (concurrent quarantine) or unmovable; removing
		// is the fallback that still prevents serving it.
		_ = os.Remove(s.objectPath(addr))
	}
	obs.StoreQuarantined.Add(1)
	s.log.Warn("store: quarantined corrupt record", "addr", addr, "reason", reason)
	s.mu.Lock()
	if el, ok := s.lruIdx[addr]; ok {
		s.removeLocked(el)
	}
	s.mu.Unlock()
}

// saveAttempts/backoff shape the retry loop for transient write
// failures (EINTR-ish hiccups, racing directory creation); persistent
// failures (ENOSPC, EROFS) surface after the last attempt.
const saveAttempts = 3

var saveBackoff = 10 * time.Millisecond

// Save atomically persists a result under its canonical key:
// serialize, write to tmp/, fsync, rename into objects/. Transient
// errors are retried with backoff. Save never partially publishes — a
// reader sees the full committed record or nothing.
func (s *Store) Save(key string, r sim.Result) error {
	addr := ResultAddr(key)
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("serve: store encode: %w", err)
	}
	sum := sha256.Sum256(payload)
	header, err := json.Marshal(recordHeader{
		V: storeVersion, Key: key, Len: len(payload),
		SHA256: hex.EncodeToString(sum[:]), SavedUnix: time.Now().Unix(),
	})
	if err != nil {
		return fmt.Errorf("serve: store encode header: %w", err)
	}
	var rec bytes.Buffer
	rec.Grow(len(header) + 1 + len(payload))
	rec.Write(header)
	rec.WriteByte('\n')
	rec.Write(payload)

	for attempt := 0; ; attempt++ {
		err = s.writeRecord(addr, rec.Bytes())
		if err == nil {
			break
		}
		if attempt+1 >= saveAttempts {
			return err
		}
		time.Sleep(saveBackoff << attempt)
	}
	s.lruPut(addr, key, r, int64(len(payload)))
	return nil
}

func (s *Store) writeRecord(addr string, rec []byte) error {
	if err := os.MkdirAll(filepath.Dir(s.objectPath(addr)), 0o755); err != nil {
		return fmt.Errorf("serve: store shard dir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), addr+".*")
	if err != nil {
		return fmt.Errorf("serve: store tmp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) }
	if _, err := tmp.Write(rec); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("serve: store write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("serve: store fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("serve: store close: %w", err)
	}
	if err := os.Rename(tmpName, s.objectPath(addr)); err != nil {
		cleanup()
		return fmt.Errorf("serve: store commit: %w", err)
	}
	return nil
}

func (s *Store) lruGet(addr string) (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.lruIdx[addr]
	if !ok {
		return sim.Result{}, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

func (s *Store) lruPut(addr, key string, r sim.Result, size int64) {
	if size > s.lruCap {
		return // a single over-budget payload would evict everything for nothing
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.lruIdx[addr]; ok {
		e := el.Value.(*lruEntry)
		s.lruBytes += size - e.size
		e.res, e.size = r, size
		s.lru.MoveToFront(el)
	} else {
		s.lruIdx[addr] = s.lru.PushFront(&lruEntry{addr: addr, key: key, res: r, size: size})
		s.lruBytes += size
	}
	for s.lruBytes > s.lruCap {
		s.removeLocked(s.lru.Back())
	}
	obs.StoreCacheBytes.Set(float64(s.lruBytes))
}

// removeLocked drops one LRU element and its byte accounting. Caller
// holds s.mu.
func (s *Store) removeLocked(el *list.Element) {
	e := el.Value.(*lruEntry)
	s.lru.Remove(el)
	delete(s.lruIdx, e.addr)
	s.lruBytes -= e.size
	obs.StoreCacheBytes.Set(float64(s.lruBytes))
}

// LRULen reports the in-memory layer's population (tests, /debug).
func (s *Store) LRULen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// LRUBytes reports the payload bytes currently held by the in-memory
// layer (the udpsim_store_cache_bytes gauge's source of truth).
func (s *Store) LRUBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lruBytes
}
