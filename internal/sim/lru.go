package sim

// LRU is a fixed-capacity map that keeps its entries in recency order. A
// key→slot map serves lookups, and an intrusive doubly-linked list over a
// fixed slot array orders the slots from most to least recently used, so a
// hit, an insert and an eviction of the least recently used entry are each
// O(1). The victim is always the entry a scan for the oldest unique
// last-use tick would pick, so a timing model can switch to LRU without
// moving simulated cycles.
type LRU[K comparable, V any] struct {
	idx   map[K]int32
	slots []lruSlot[K, V]
	head  int32 // most recently used slot; -1 when empty
	tail  int32 // least recently used slot; -1 when empty
	free  int32 // first unused slot, chained through next; -1 when full
}

type lruSlot[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// NewLRU returns an empty LRU holding up to capacity entries. A capacity
// of 0 stores nothing.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	l := &LRU[K, V]{idx: make(map[K]int32, capacity), slots: make([]lruSlot[K, V], capacity)}
	l.Clear()
	return l
}

// Len returns the number of entries held.
func (l *LRU[K, V]) Len() int { return len(l.idx) }

// Clear removes every entry.
func (l *LRU[K, V]) Clear() {
	clear(l.idx)
	l.head, l.tail, l.free = -1, -1, -1
	for i := len(l.slots) - 1; i >= 0; i-- {
		l.slots[i] = lruSlot[K, V]{next: l.free}
		l.free = int32(i)
	}
}

// Get returns the value stored under k and marks it most recently used.
//
//hwgc:hotpath
func (l *LRU[K, V]) Get(k K) (V, bool) {
	i, ok := l.idx[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveToFront(i)
	return l.slots[i].val, true
}

// Put stores v under k and marks it most recently used. When k is new and
// the LRU is full, the least recently used entry is evicted first.
//
//hwgc:hotpath
func (l *LRU[K, V]) Put(k K, v V) {
	if i, ok := l.idx[k]; ok {
		l.slots[i].val = v
		l.moveToFront(i)
		return
	}
	if l.free < 0 {
		l.EvictOldest()
	}
	i := l.free
	if i < 0 {
		return // capacity 0
	}
	l.free = l.slots[i].next
	l.slots[i].key, l.slots[i].val = k, v
	l.pushFront(i)
	l.idx[k] = i
}

// EvictOldest removes the least recently used entry, if any.
//
//hwgc:hotpath
func (l *LRU[K, V]) EvictOldest() {
	if l.tail >= 0 {
		l.remove(l.tail)
	}
}

// Remove deletes the entry stored under k, if any.
func (l *LRU[K, V]) Remove(k K) {
	if i, ok := l.idx[k]; ok {
		l.remove(i)
	}
}

func (l *LRU[K, V]) remove(i int32) {
	l.unlink(i)
	delete(l.idx, l.slots[i].key)
	l.slots[i] = lruSlot[K, V]{next: l.free}
	l.free = i
}

func (l *LRU[K, V]) unlink(i int32) {
	s := &l.slots[i]
	if s.prev >= 0 {
		l.slots[s.prev].next = s.next
	} else {
		l.head = s.next
	}
	if s.next >= 0 {
		l.slots[s.next].prev = s.prev
	} else {
		l.tail = s.prev
	}
}

func (l *LRU[K, V]) pushFront(i int32) {
	s := &l.slots[i]
	s.prev, s.next = -1, l.head
	if l.head >= 0 {
		l.slots[l.head].prev = i
	} else {
		l.tail = i
	}
	l.head = i
}

func (l *LRU[K, V]) moveToFront(i int32) {
	if l.head != i {
		l.unlink(i)
		l.pushFront(i)
	}
}
