//go:build unix

package mem

import (
	"bytes"
	"sync"
	"testing"
)

// seeded returns a template of n pages whose every word holds its address.
func seeded(n int) *Image {
	im := NewImage(n * PageSize)
	for a := 0; a < im.Size(); a += WordSize {
		im.WriteU32(Addr(a), uint32(a))
	}
	return im
}

// TestForkIsolation: a fork starts as a byte-equal copy of its template, and
// a write to one fork is seen neither by another fork nor by the template.
func TestForkIsolation(t *testing.T) {
	tmpl := seeded(4)
	defer tmpl.Release()
	want := append([]byte(nil), tmpl.Bytes()...)
	a, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	b, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if !bytes.Equal(a.Bytes(), want) || !bytes.Equal(b.Bytes(), want) {
		t.Fatal("a fork does not start equal to its template")
	}
	a.WriteU32(PageSize+8, 0xdeadbeef)
	a.Page(3)[0] = 0xaa
	if a.ReadU32(PageSize+8) != 0xdeadbeef || a.Page(3)[0] != 0xaa {
		t.Error("a fork does not see its own writes")
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Error("a write to one fork reached another fork")
	}
	if !bytes.Equal(tmpl.Bytes(), want) {
		t.Error("a write to a fork reached the template")
	}
	c, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if !bytes.Equal(c.Bytes(), want) {
		t.Error("a write to a fork reached the template's memory file: a later fork sees it")
	}
}

// TestForkOutlivesTemplateRelease: releasing a template closes its memory
// file without touching the forks already made, and a later Fork writes a
// new file from the template's current bytes.
func TestForkOutlivesTemplateRelease(t *testing.T) {
	tmpl := seeded(2)
	a, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	if err := tmpl.Release(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), tmpl.Bytes()) {
		t.Error("a fork lost its contents when the template was released")
	}
	a.WriteU32(0, 7)
	tmpl.WriteU32(4, 9)
	b, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer tmpl.Release()
	defer b.Release()
	if b.ReadU32(0) != 0 || b.ReadU32(4) != 9 {
		t.Errorf("a fork after release reads %d, %d; want the template's 0, 9", b.ReadU32(0), b.ReadU32(4))
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if b.Bytes() != nil {
		t.Error("a released fork still exposes its unmapped bytes")
	}
}

// TestForkConcurrent: parallel cells fork one cached template at once; the
// first fork writes the memory file exactly once and every fork reads the
// template's bytes.
func TestForkConcurrent(t *testing.T) {
	tmpl := seeded(3)
	defer tmpl.Release()
	forks := make([]*Image, 8)
	errs := make([]error, len(forks))
	var wg sync.WaitGroup
	for i := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			forks[i], errs[i] = tmpl.Fork()
		}()
	}
	wg.Wait()
	for i, f := range forks {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(f.Bytes(), tmpl.Bytes()) {
			t.Errorf("fork %d differs from the template", i)
		}
		f.Release()
	}
}

// TestRecycleImageRefusesFork: a fork is a mapping, not a pooled heap
// buffer; handing one to the recycle pool would let RecycledImage serve
// unmapped memory, so it panics. Releasing it is the way back.
func TestRecycleImageRefusesFork(t *testing.T) {
	tmpl := seeded(1)
	f, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "recycle a fork", func() { RecycleImage(f) })
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	// A template is a heap image: it may be pooled, and its memory file
	// goes with the buffer's old contents.
	RecycleImage(tmpl)
	if tmpl.fork.file != nil {
		t.Error("a recycled template kept its memory file")
	}
}
