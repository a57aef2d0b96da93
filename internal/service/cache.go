// Package service exposes the analytical model and its engines over
// HTTP (see cmd/ccserved). Every compute kind in the endpoint table
// answers through one path: its canonical key (internal/canon), a
// bytes- and entry-bounded LRU result cache with TTL, and a singleflight
// group that coalesces identical in-flight requests onto one computation.
package service

import (
	"container/list"
	"sync"
	"time"

	"github.com/ccnet/ccnet/internal/canon"
)

// entryOverhead approximates the per-entry bookkeeping cost (list
// element, map slot, entry struct) charged against MaxBytes on top of the
// key and payload lengths.
const entryOverhead = 128

// Cache is a thread-safe LRU result cache bounded by entry count and
// total bytes, with a per-entry TTL. Values are opaque byte payloads
// (the service stores encoded response bodies). The zero value is not
// usable; construct with NewCache.
type Cache struct {
	mu      sync.Mutex
	ll      *list.List // front = most recently used
	items   map[canon.Key]*list.Element
	bytes   int64
	max     int
	maxB    int64
	ttl     time.Duration
	now     func() time.Time // injectable clock for TTL tests
	hits    uint64
	misses  uint64
	evicted uint64
	expired uint64
}

type cacheEntry struct {
	key     canon.Key
	val     []byte
	size    int64
	expires time.Time // zero = never
}

// NewCache builds a cache holding at most maxEntries entries and
// maxBytes total bytes (each <= 0 means unbounded on that axis, but not
// both), expiring entries ttl after insertion (ttl <= 0 disables
// expiry).
func NewCache(maxEntries int, maxBytes int64, ttl time.Duration) *Cache {
	return &Cache{
		ll:    list.New(),
		items: make(map[canon.Key]*list.Element),
		max:   maxEntries,
		maxB:  maxBytes,
		ttl:   ttl,
		now:   time.Now,
	}
}

// Get returns the payload cached under k, marking it most recently used.
// An expired entry is removed and reported as a miss.
func (c *Cache) Get(k canon.Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(el)
		c.expired++
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return e.val, true
}

// Put caches payload v under k, replacing any previous entry, then
// evicts least-recently-used entries until both bounds hold. A payload
// that alone exceeds MaxBytes is not cached.
func (c *Cache) Put(k canon.Key, v []byte) {
	size := int64(len(k)) + int64(len(v)) + entryOverhead
	if c.maxB > 0 && size > c.maxB {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.removeLocked(el)
	}
	e := &cacheEntry{key: k, val: v, size: size}
	if c.ttl > 0 {
		e.expires = c.now().Add(c.ttl)
	}
	c.items[k] = c.ll.PushFront(e)
	c.bytes += size
	for (c.max > 0 && c.ll.Len() > c.max) || (c.maxB > 0 && c.bytes > c.maxB) {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evicted++
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Entries     int     `json:"entries"`
	Bytes       int64   `json:"bytes"`
	MaxEntries  int     `json:"maxEntries"`
	MaxBytes    int64   `json:"maxBytes"`
	TTLSeconds  float64 `json:"ttlSeconds"`
	Hits        uint64  `json:"hits"`
	Misses      uint64  `json:"misses"`
	Evictions   uint64  `json:"evictions"`
	Expirations uint64  `json:"expirations"`
	// HitRate is hits/(hits+misses); 0 before any lookup.
	HitRate float64 `json:"hitRate"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Entries:     c.ll.Len(),
		Bytes:       c.bytes,
		MaxEntries:  c.max,
		MaxBytes:    c.maxB,
		TTLSeconds:  c.ttl.Seconds(),
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evicted,
		Expirations: c.expired,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
