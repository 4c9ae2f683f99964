package sim

// FreeList recycles the objects that carry a unit's in-flight requests.
// Such an object binds its callbacks once when it is made, so reusing it
// keeps issuing and completing a request free of allocation; the list
// grows only while more requests are in flight than ever before.
type FreeList[T any] struct {
	free  []*T
	alloc func() *T
}

// NewFreeList returns an empty list that makes new objects with alloc.
func NewFreeList[T any](alloc func() *T) FreeList[T] {
	return FreeList[T]{alloc: alloc}
}

// Get returns a recycled object, or a new one when none is free.
//
//hwgc:hotpath
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return x
	}
	return f.alloc()
}

// Put returns x to the list for a later Get.
//
//hwgc:hotpath
func (f *FreeList[T]) Put(x *T) { f.free = append(f.free, x) }
