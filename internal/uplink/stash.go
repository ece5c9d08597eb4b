package uplink

import (
	"runtime"
	"sync"
	"weak"
)

// stash is the decoder's free list for the frame arena's slabs and the
// frame scratch. Like sync.Pool it lets the collector have what sits
// unused: an item put back before one GC cycle is held only weakly after
// it, and is gone after the next unless it was taken out in between, so an
// idle decoder pins nothing. Unlike sync.Pool it is one list under one
// lock, with no per-P cache. A sync.Pool Get cannot reach the item another
// P holds in its private slot, so whether a frame close found a pooled
// slab used to depend on which cores its goroutines happened to run on,
// and each miss allocates a whole slab or scratch (up to a megabyte for a
// 3×30 frame). A stash misses only when every item it holds is in use or
// has been collected. Its lock is taken twice per frame close, not per
// push.
type stash[T any] struct {
	mu  sync.Mutex
	cur []*T              // put since the last GC cycle, most recent last
	old []weak.Pointer[T] // put before it, most recent last
}

// get takes the most recently put item that is still alive, or returns
// nil.
func (s *stash[T]) get() *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.cur); n > 0 {
		p := s.cur[n-1]
		s.cur[n-1], s.cur = nil, s.cur[:n-1]
		return p
	}
	for n := len(s.old); n > 0; n-- {
		w := s.old[n-1]
		s.old = s.old[:n-1]
		if p := w.Value(); p != nil {
			return p
		}
	}
	return nil
}

// put returns p to the stash.
func (s *stash[T]) put(p *T) {
	s.mu.Lock()
	//wblint:ignore SH001 put takes back only items the decoder took out, so cur holds at most the most it ever had in use at once, and age empties it every GC cycle
	s.cur = append(s.cur, p)
	s.mu.Unlock()
}

// age runs once per GC cycle: it forgets the weakly held items, which
// sat unused through the whole cycle, and holds the items put during it
// weakly, so the next collection frees those that stay unused. Once the
// lists have grown, ageing allocates nothing: a weak pointer to an item
// that had one before reuses it.
func (s *stash[T]) age() {
	s.mu.Lock()
	s.old = s.old[:0]
	for _, p := range s.cur {
		//wblint:ignore SH001 old is reset above and takes at most cur's items
		s.old = append(s.old, weak.Make(p))
	}
	clear(s.cur)
	s.cur = s.cur[:0]
	s.mu.Unlock()
}

// gcSentinel carries the finalizer that ages the stashes. Its pointer
// field keeps it out of the runtime's tiny-object blocks, whose
// finalizers may never run.
type gcSentinel struct{ _ *byte }

func init() { ageAfterNextGC() }

// ageAfterNextGC arms a finalizer on an unreachable sentinel: the next
// collection finds it, and the finalizer ages every stash of the package
// and arms a new sentinel, so the stashes age once per GC cycle.
func ageAfterNextGC() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		for c := range slabStashes {
			slabStashes[c].age()
		}
		scratchStash.age()
		ageAfterNextGC()
	})
}
