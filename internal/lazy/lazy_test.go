package lazy

import "testing"

func TestMaskArrayBasics(t *testing.T) {
	a := NewMaskArray(10)
	if a.Len() != 10 {
		t.Fatalf("Len=%d", a.Len())
	}
	for i := 0; i < 10; i++ {
		if a.Get(i) != 0 {
			t.Fatalf("fresh Get(%d)=%d, want 0", i, a.Get(i))
		}
	}
	if got := a.Or(3, 0b101); got != 0b101 {
		t.Errorf("Or returned %b, want 101", got)
	}
	if got := a.Or(3, 0b011); got != 0b111 {
		t.Errorf("Or returned %b, want 111", got)
	}
	a.Set(4, 42)
	if a.Get(4) != 42 || a.Get(3) != 0b111 || a.Get(5) != 0 {
		t.Errorf("unexpected values: %d %d %d", a.Get(4), a.Get(3), a.Get(5))
	}
}

func TestMaskArrayReset(t *testing.T) {
	a := NewMaskArray(5)
	a.Set(0, 7)
	a.Set(4, 9)
	a.Reset()
	for i := 0; i < 5; i++ {
		if a.Get(i) != 0 {
			t.Fatalf("after Reset Get(%d)=%d", i, a.Get(i))
		}
	}
	// Values written after reset are independent of stale contents.
	if got := a.Or(0, 2); got != 2 {
		t.Errorf("Or after reset=%d, want 2", got)
	}
}

func TestMaskArrayEpochWraparound(t *testing.T) {
	a := NewMaskArray(3)
	a.epoch = ^uint32(0) // force wraparound on next Reset
	a.Set(1, 5)
	a.Reset()
	if a.epoch != 1 {
		t.Fatalf("epoch after wrap=%d, want 1", a.epoch)
	}
	for i := 0; i < 3; i++ {
		if a.Get(i) != 0 {
			t.Fatalf("after wrap Get(%d)=%d", i, a.Get(i))
		}
	}
}

func BenchmarkMaskArrayOrReset(b *testing.B) {
	a := NewMaskArray(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Or(i%a.Len(), uint64(i))
		if i%1000 == 999 {
			a.Reset()
		}
	}
}
