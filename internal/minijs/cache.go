package minijs

import (
	"hash/maphash"
	"strings"
	"sync"
)

// Cache bounds. Each table is cleared wholesale when an insert would pass
// its cap: the cache memoizes a deterministic function, so what it evicts
// changes speed, never output.
const (
	// cacheSeenCap caps the seen-set of source hashes.
	cacheSeenCap = 4096
	// cacheSourceCap caps the total source bytes of the cached Programs; a
	// source longer than this is never cached.
	cacheSourceCap = 256 << 10
)

// Cache memoizes Parse for scripts that recur: phishing kits serve the
// same script on many pages. A source is admitted on its second sighting,
// so one-shot scripts cost one hash and never hold memory. Programs are
// immutable once parsed, so one cached Program runs in any number of
// interpreters, concurrently. A nil *Cache parses every call. A Cache is
// safe for concurrent use.
type Cache struct {
	seed maphash.Seed

	mu    sync.Mutex
	seen  map[uint64]struct{}   // guarded by mu
	progs map[string]cacheEntry // guarded by mu
	// bytes is the sum of the key lengths in progs.
	bytes int // guarded by mu
}

// cacheEntry is a memoized Parse result, error included, so a bad script
// fails with the same error every time.
type cacheEntry struct {
	prog *Program
	err  error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		seed:  maphash.MakeSeed(),
		seen:  make(map[uint64]struct{}),
		progs: make(map[string]cacheEntry),
	}
}

// Parse returns Parse(src), from the cache when src was admitted before.
// Entries are keyed by the full source text: a hash collision in the
// seen-set only admits a source early, never returns another's Program.
func (c *Cache) Parse(src string) (*Program, error) {
	if c == nil {
		return Parse(src)
	}
	c.mu.Lock()
	if e, ok := c.progs[src]; ok {
		c.mu.Unlock()
		return e.prog, e.err
	}
	h := maphash.String(c.seed, src)
	_, again := c.seen[h]
	if !again {
		if len(c.seen) >= cacheSeenCap {
			clear(c.seen)
		}
		c.seen[h] = struct{}{}
	}
	c.mu.Unlock()

	prog, err := Parse(src)
	if again && len(src) <= cacheSourceCap {
		c.mu.Lock()
		if _, ok := c.progs[src]; !ok {
			if c.bytes+len(src) > cacheSourceCap {
				clear(c.progs)
				c.bytes = 0
			}
			// Clone the key: src may be a substring of a whole page.
			c.progs[strings.Clone(src)] = cacheEntry{prog: prog, err: err}
			c.bytes += len(src)
		}
		c.mu.Unlock()
	}
	return prog, err
}
