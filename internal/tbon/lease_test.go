package tbon

import (
	"bytes"
	"sync"
	"testing"
)

func TestLeaseRetainRelease(t *testing.T) {
	freed := 0
	buf := []byte("payload")
	l := NewLease(buf, func(b []byte) {
		if !bytes.Equal(b, buf) {
			t.Errorf("free hook got %q", b)
		}
		freed++
	})
	if !bytes.Equal(l.Bytes(), buf) || l.Len() != len(buf) {
		t.Fatal("lease does not expose its buffer")
	}
	l.Retain()
	l.Release()
	if freed != 0 {
		t.Fatal("freed while a reference remains")
	}
	l.Release()
	if freed != 1 {
		t.Fatalf("free hook ran %d times, want 1", freed)
	}
}

func TestLeaseGuards(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	l := NewLease([]byte("x"), nil)
	l.Release()
	expectPanic("Bytes after release", func() { l.Bytes() })
	expectPanic("Len after release", func() { l.Len() })
	expectPanic("Retain after release", func() { l.Retain() })
	expectPanic("double Release", func() { l.Release() })
}

func TestLeaseSubPinsParent(t *testing.T) {
	freed := false
	buf := []byte("header|body")
	l := NewLease(buf, func([]byte) { freed = true })
	sub := l.Sub(buf[7:])
	l.Release() // parent's own reference gone; sub still pins it
	if freed {
		t.Fatal("parent freed while a sub-lease views it")
	}
	if string(sub.Bytes()) != "body" {
		t.Fatalf("sub bytes = %q", sub.Bytes())
	}
	sub.Release()
	if !freed {
		t.Fatal("parent not freed after the last sub-lease died")
	}
}

func TestLeaseConcurrentRetainRelease(t *testing.T) {
	var freed sync.WaitGroup
	freed.Add(1)
	l := NewLease(make([]byte, 8), func([]byte) { freed.Done() })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		l.Retain()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Retain()
				_ = l.Len()
				l.Release()
			}
			l.Release()
		}()
	}
	wg.Wait()
	l.Release()
	freed.Wait() // hangs (test timeout) if the hook never ran
}

// TestBytesFilterAdapter checks the adapter preserves payload semantics
// and mints an owned output lease.
func TestBytesFilterAdapter(t *testing.T) {
	f := BytesFilter(func(children [][]byte) ([]byte, error) {
		var out []byte
		for _, c := range children {
			out = append(out, c...)
		}
		return out, nil
	})
	a, b := NewLease([]byte("ab"), nil), NewLease([]byte("cd"), nil)
	out, err := f([]*Lease{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Bytes()) != "abcd" {
		t.Fatalf("adapter output %q", out.Bytes())
	}
	out.Release()
	a.Release()
	b.Release()
}
