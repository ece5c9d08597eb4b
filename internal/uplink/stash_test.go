package uplink

import (
	"runtime"
	"testing"
)

// TestStash holds the stash to its contract: get hands back the most
// recently put item, from any goroutine; an item survives one age and is
// forgotten by the second unless it was taken and put back in between;
// and after one age the stash no longer keeps an item alive.
func TestStash(t *testing.T) {
	var s stash[int]
	if p := s.get(); p != nil {
		t.Fatalf("an empty stash handed out %d", *p)
	}
	one, two := new(int), new(int)
	*one, *two = 1, 2
	done := make(chan struct{})
	go func() { // a sync.Pool could not hand these to another P
		s.put(one)
		s.put(two)
		close(done)
	}()
	<-done
	if p := s.get(); p != two {
		t.Fatalf("get = %v, want the last put, 2", p)
	}
	s.put(two)

	s.age() // 1 and 2 have sat through one collection
	if p := s.get(); p != two {
		t.Fatalf("get after one age = %v, want 2", p)
	}
	s.put(two) // used again: 2 is fresh, 1 is not
	s.age()
	if p := s.get(); p != two {
		t.Fatalf("get after two ages = %v, want 2, the item in use between them", p)
	}
	if p := s.get(); p != nil {
		t.Fatalf("get handed out %d, which sat unused through two ages", *p)
	}
	runtime.KeepAlive(one)

	var big stash[[1 << 16]float64]
	big.put(new([1 << 16]float64))
	big.age()
	runtime.GC()
	if p := big.get(); p != nil {
		t.Fatal("an aged item nothing else holds survived a collection")
	}
}
