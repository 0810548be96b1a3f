package stackwalk

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"stat/internal/mpisim"
)

func TestBuildParseRoundTrip(t *testing.T) {
	syms := []Sym{
		{Name: "main", Addr: 0x1000, Size: 0x100},
		{Name: "helper", Addr: 0x1100, Size: 0x80},
		{Name: "zeta", Addr: 0x2000, Size: 0x10},
	}
	img, err := BuildImage(syms, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ParseImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSymbols() != 3 {
		t.Errorf("NumSymbols = %d", st.NumSymbols())
	}
	cases := map[uint64]string{
		0x1000: "main", 0x10FF: "main",
		0x1100: "helper", 0x117F: "helper",
		0x2000: "zeta",
	}
	for pc, want := range cases {
		got, ok := st.Resolve(pc)
		if !ok || got != want {
			t.Errorf("Resolve(%#x) = %q,%v, want %q", pc, got, ok, want)
		}
	}
	for _, pc := range []uint64{0, 0xFFF, 0x1180, 0x2010, 0xFFFFFFFF} {
		if name, ok := st.Resolve(pc); ok {
			t.Errorf("Resolve(%#x) = %q, want miss", pc, name)
		}
	}
}

func TestBuildImagePadding(t *testing.T) {
	syms := []Sym{{Name: "f", Addr: 0x10, Size: 4}}
	img, err := BuildImage(syms, 10*1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != 10*1024 {
		t.Errorf("padded image = %d bytes, want 10KiB", len(img))
	}
	st, err := ParseImage(img)
	if err != nil {
		t.Fatalf("padded image failed to parse: %v", err)
	}
	if _, ok := st.Resolve(0x12); !ok {
		t.Error("symbol lost under padding")
	}
}

func TestBuildImageRejectsOverlap(t *testing.T) {
	syms := []Sym{
		{Name: "a", Addr: 0x100, Size: 0x100},
		{Name: "b", Addr: 0x180, Size: 0x10},
	}
	if _, err := BuildImage(syms, 0); err == nil {
		t.Error("overlapping symbols accepted")
	}
}

func TestParseImageRejectsCorrupt(t *testing.T) {
	img, _ := BuildImage([]Sym{{Name: "main", Addr: 1, Size: 1}}, 0)
	cases := map[string][]byte{
		"empty":     {},
		"short":     img[:6],
		"bad magic": append([]byte("XXXX"), img[4:]...),
		"truncated": img[:len(img)-2],
	}
	for name, data := range cases {
		if _, err := ParseImage(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMergeTables(t *testing.T) {
	img1, _ := BuildImage([]Sym{{Name: "a", Addr: 0x100, Size: 0x10}}, 0)
	img2, _ := BuildImage([]Sym{{Name: "b", Addr: 0x200, Size: 0x10}}, 0)
	t1, _ := ParseImage(img1)
	t2, _ := ParseImage(img2)
	m, err := Merge(t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := m.Resolve(0x105); n != "a" {
		t.Errorf("merged resolve a = %q", n)
	}
	if n, _ := m.Resolve(0x205); n != "b" {
		t.Errorf("merged resolve b = %q", n)
	}
	// Overlapping modules rejected.
	img3, _ := BuildImage([]Sym{{Name: "c", Addr: 0x108, Size: 0x10}}, 0)
	t3, _ := ParseImage(img3)
	if _, err := Merge(t1, t3); err == nil {
		t.Error("overlapping modules accepted")
	}
}

func TestWalkerResolvesAppStacks(t *testing.T) {
	app, err := mpisim.NewRing(64)
	if err != nil {
		t.Fatal(err)
	}
	img, err := StaticImage()
	if err != nil {
		t.Fatal(err)
	}
	st, err := ParseImage(img)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(app, st)
	frames := w.Sample(1, 0, 0)
	var names []string
	for _, f := range frames {
		names = append(names, f.Function)
	}
	want := []string{mpisim.FnStart, mpisim.FnMain, mpisim.FnSendOrStall, mpisim.FnGettimeofday}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("walker frames = %v, want %v", names, want)
	}
}

func TestWalkerUnresolvedBecomesQuestionMarks(t *testing.T) {
	app, err := mpisim.NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	// Symbol table missing everything: frames degrade to "??".
	empty, err := ParseImage(mustImage(t, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(app, empty)
	for _, f := range w.Sample(0, 0, 0) {
		if f.Function != "??" {
			t.Errorf("frame = %q, want ??", f.Function)
		}
	}
}

func mustImage(t *testing.T, syms []Sym, pad int) []byte {
	t.Helper()
	img, err := BuildImage(syms, pad)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestAppImagesMatchPaperSizes(t *testing.T) {
	images, err := AppImages()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 10KB executable, 4MB MPI library.
	if got := len(images["a.out"]); got != 10*1024 {
		t.Errorf("a.out = %d bytes, want 10KiB", got)
	}
	if got := len(images["libmpi.so"]); got != 4*1024*1024 {
		t.Errorf("libmpi.so = %d bytes, want 4MiB", got)
	}
	if _, ok := images["libc.so"]; !ok {
		t.Error("libc.so missing")
	}
	// Each parses and the union resolves the whole app.
	var tables []*SymbolTable
	for mod, img := range images {
		st, err := ParseImage(img)
		if err != nil {
			t.Fatalf("%s: %v", mod, err)
		}
		tables = append(tables, st)
	}
	merged, err := Merge(tables...)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range mpisim.Functions() {
		if name, ok := merged.Resolve(f.Addr + 4); !ok || name != f.Name {
			t.Errorf("merged tables cannot resolve %q", f.Name)
		}
	}
}

// TestQuickResolveMatchesLinearScan: binary-search resolution agrees with
// a straightforward scan for arbitrary PCs.
func TestQuickResolveMatchesLinearScan(t *testing.T) {
	img, err := StaticImage()
	if err != nil {
		t.Fatal(err)
	}
	st, err := ParseImage(img)
	if err != nil {
		t.Fatal(err)
	}
	funcs := mpisim.Functions()
	linear := func(pc uint64) (string, bool) {
		for _, f := range funcs {
			if pc >= f.Addr && pc < f.Addr+f.Size {
				return f.Name, true
			}
		}
		return "", false
	}
	f := func(pc uint64) bool {
		pc %= 0x0050_0000 // keep near the text segment so hits occur
		gn, gok := st.Resolve(pc)
		wn, wok := linear(pc)
		return gn == wn && gok == wok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBuildImagePadPattern: the padded image is byte-for-byte the table
// followed by a zero pad of exactly the requested length, at small, page
// and 8 MB-plus pad lengths.
func TestBuildImagePadPattern(t *testing.T) {
	syms := []Sym{{Name: "f", Addr: 0x10, Size: 4}, {Name: "a_much_longer_symbol_name", Addr: 0x20, Size: 8}}
	table, err := BuildImage(syms, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pad := range []int{0, 10, 300, 4 << 10, 8<<20 + 13} {
		img, err := BuildImage(syms, len(table)+pad)
		if err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte(nil), table...), make([]byte, pad)...)
		if !bytes.Equal(img, want) {
			t.Errorf("pad %d: image differs from table + zero pad", pad)
		}
	}
}
