package memsize

import (
	"testing"
)

func TestNil(t *testing.T) {
	if got := Of(nil); got != 0 {
		t.Fatalf("Of(nil) = %d, want 0", got)
	}
}

func TestScalar(t *testing.T) {
	if got := Of(int64(7)); got != 8 {
		t.Fatalf("Of(int64) = %d, want 8", got)
	}
	if got := Of(float64(1.5)); got != 8 {
		t.Fatalf("Of(float64) = %d, want 8", got)
	}
}

func TestSliceCountsBackingArray(t *testing.T) {
	s := make([]int64, 100)
	got := Of(s)
	// Header (24) + 100*8 backing.
	if got < 800 || got > 900 {
		t.Fatalf("Of([]int64 x100) = %d, want ~824", got)
	}
	// Capacity, not length, is retained.
	s2 := make([]int64, 1, 1000)
	if Of(s2) < 8000 {
		t.Fatalf("capacity must be counted: %d", Of(s2))
	}
}

func TestSliceGrowsLinearly(t *testing.T) {
	small := Of(make([]int64, 1000))
	big := Of(make([]int64, 10000))
	ratio := float64(big) / float64(small)
	if ratio < 9 || ratio > 11 {
		t.Fatalf("10x slice should be ~10x bytes, ratio %.2f", ratio)
	}
}

func TestSharedPointerCountedOnce(t *testing.T) {
	shared := make([]int64, 1000)
	type holder struct{ A, B []int64 }
	h := holder{A: shared, B: shared}
	one := Of(holder{A: shared})
	both := Of(h)
	// The second reference adds only a header (24 bytes), not the array.
	if both > one+100 {
		t.Fatalf("shared backing array double-counted: one=%d both=%d", one, both)
	}
}

func TestPointerCycleTerminates(t *testing.T) {
	type node struct {
		Next *node
		Val  [64]byte
	}
	a := &node{}
	b := &node{Next: a}
	a.Next = b
	got := Of(a) // must not hang
	if got < 128 {
		t.Fatalf("cycle of two nodes measured as %d bytes", got)
	}
}

func TestMapScalesWithEntries(t *testing.T) {
	small := map[int64]int64{}
	for i := int64(0); i < 100; i++ {
		small[i] = i
	}
	big := map[int64]int64{}
	for i := int64(0); i < 10000; i++ {
		big[i] = i
	}
	ratio := float64(Of(big)) / float64(Of(small))
	if ratio < 50 || ratio > 200 {
		t.Fatalf("100x map entries should be ~100x bytes, ratio %.1f", ratio)
	}
}

func TestNestedStruct(t *testing.T) {
	type inner struct {
		Data []float64
	}
	type outer struct {
		Items []inner
		Index map[int32][]int32
	}
	o := outer{Index: map[int32][]int32{}}
	for i := 0; i < 50; i++ {
		o.Items = append(o.Items, inner{Data: make([]float64, 100)})
		o.Index[int32(i)] = make([]int32, 20)
	}
	got := Of(o)
	// 50*100*8 floats = 40000, 50*20*4 ints = 4000, plus headers.
	if got < 44000 || got > 70000 {
		t.Fatalf("nested struct measured as %d bytes, want ~48k-60k", got)
	}
}

func TestString(t *testing.T) {
	if got := Of("hello"); got < 5+16 || got > 5+24 {
		t.Fatalf("Of(string) = %d", got)
	}
}

func TestInterfaceBoxing(t *testing.T) {
	var i interface{} = make([]int64, 100)
	if Of(i) < 800 {
		t.Fatalf("boxed slice measured as %d", Of(i))
	}
}

func TestNilInnerValues(t *testing.T) {
	type s struct {
		P *int
		S []int
		M map[int]int
	}
	if got := Of(s{}); got != uint64(8+24+8) {
		t.Fatalf("struct of nil refs = %d, want 40", got)
	}
}
