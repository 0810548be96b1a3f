// Package stackwalk reproduces the role of the StackWalker API: a
// lightweight third-party component the STAT daemons use to sample call
// stacks from their co-located application processes. Walking a stack
// yields raw program counters; turning those into function names requires
// the symbol tables of the executable and its shared libraries — file I/O
// on shared file systems, which is precisely the environment interaction
// Section VI of the paper identifies as a scalability bottleneck.
//
// The package defines a compact binary image format ("SIMG") carrying a
// symbol table, a parser for it, and a Walker that samples simulated tasks
// and resolves their stacks.
package stackwalk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"stat/internal/mpisim"
	"stat/internal/trace"
)

// Sym is one symbol-table entry.
type Sym struct {
	Name string
	Addr uint64
	Size uint64
}

// SymbolTable resolves program counters to function names.
type SymbolTable struct {
	syms []Sym // sorted by Addr
}

// imageMagic introduces a simulated binary image.
var imageMagic = [4]byte{'S', 'I', 'M', 'G'}

// BuildImage serializes a symbol table into a binary image, padded with
// zero bytes to the requested total size (symbol parsing cost and
// file-transfer cost both scale with the real image size, so only the
// image's length matters beyond the table). A padSize of 0 keeps just the
// table.
func BuildImage(syms []Sym, padSize int) ([]byte, error) {
	sorted := append([]Sym(nil), syms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
	table := 8
	for i, s := range sorted {
		if i > 0 && s.Addr < sorted[i-1].Addr+sorted[i-1].Size {
			return nil, fmt.Errorf("stackwalk: overlapping symbols %q and %q", sorted[i-1].Name, s.Name)
		}
		if len(s.Name) > 0xFFFF {
			return nil, fmt.Errorf("stackwalk: symbol name too long (%d bytes)", len(s.Name))
		}
		table += 18 + len(s.Name)
	}
	// make zeroes the whole capacity, so the pad past the table is the
	// zero filler without a write: an 8 MB image costs its table alone.
	buf := make([]byte, 0, max(padSize, table))
	buf = append(buf, imageMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sorted)))
	for _, s := range sorted {
		buf = binary.LittleEndian.AppendUint64(buf, s.Addr)
		buf = binary.LittleEndian.AppendUint64(buf, s.Size)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Name)))
		buf = append(buf, s.Name...)
	}
	return buf[:cap(buf)], nil
}

// ParseImage reads the symbol table out of an image produced by BuildImage.
// This is the work each daemon performs per binary before it can sample —
// the paper's daemons did the equivalent ELF parse through the StackWalker
// API against NFS-resident files.
func ParseImage(b []byte) (*SymbolTable, error) {
	if len(b) < 8 {
		return nil, errors.New("stackwalk: image too short")
	}
	if [4]byte(b[0:4]) != imageMagic {
		return nil, errors.New("stackwalk: bad image magic")
	}
	count := int(binary.LittleEndian.Uint32(b[4:8]))
	pos := 8
	st := &SymbolTable{syms: make([]Sym, 0, count)}
	var prevEnd uint64
	for i := 0; i < count; i++ {
		if len(b)-pos < 18 {
			return nil, errors.New("stackwalk: truncated symbol entry")
		}
		addr := binary.LittleEndian.Uint64(b[pos:])
		size := binary.LittleEndian.Uint64(b[pos+8:])
		nameLen := int(binary.LittleEndian.Uint16(b[pos+16:]))
		pos += 18
		if len(b)-pos < nameLen {
			return nil, errors.New("stackwalk: truncated symbol name")
		}
		name := string(b[pos : pos+nameLen])
		pos += nameLen
		if addr < prevEnd {
			return nil, fmt.Errorf("stackwalk: symbol %q out of order or overlapping", name)
		}
		prevEnd = addr + size
		st.syms = append(st.syms, Sym{Name: name, Addr: addr, Size: size})
	}
	return st, nil
}

// Merge combines symbol tables from multiple modules into one resolver.
// Overlapping address ranges are rejected.
func Merge(tables ...*SymbolTable) (*SymbolTable, error) {
	var all []Sym
	for _, t := range tables {
		all = append(all, t.syms...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Addr < all[j].Addr })
	for i := 1; i < len(all); i++ {
		if all[i].Addr < all[i-1].Addr+all[i-1].Size {
			return nil, fmt.Errorf("stackwalk: modules overlap at %q/%q", all[i-1].Name, all[i].Name)
		}
	}
	return &SymbolTable{syms: all}, nil
}

// NumSymbols reports the table's entry count.
func (t *SymbolTable) NumSymbols() int { return len(t.syms) }

// Resolve maps a program counter to the containing function.
func (t *SymbolTable) Resolve(pc uint64) (string, bool) {
	name, _, ok := t.ResolveOffset(pc)
	return name, ok
}

// ResolveOffset maps a program counter to the containing function and the
// byte offset within it — the fine granularity STAT's detailed traces use
// to distinguish a frozen stack from one polling at the same call path.
func (t *SymbolTable) ResolveOffset(pc uint64) (string, uint64, bool) {
	s, ok := t.Symbol(pc)
	if !ok {
		return "", 0, false
	}
	return s.Name, pc - s.Addr, true
}

// Symbol returns the symbol whose range [Addr, Addr+Size) holds pc. Every
// PC in that range resolves to the same function name, which is what lets
// a caller keyed by function reuse one resolution for the whole range.
func (t *SymbolTable) Symbol(pc uint64) (Sym, bool) {
	i := sort.Search(len(t.syms), func(i int) bool { return t.syms[i].Addr > pc })
	if i == 0 {
		return Sym{}, false
	}
	s := t.syms[i-1]
	if pc >= s.Addr+s.Size {
		return Sym{}, false
	}
	return s, true
}

// Walker samples stacks from a simulated application and resolves them.
// One Walker corresponds to one daemon's use of the StackWalker API for
// its co-located processes.
type Walker struct {
	app *mpisim.App
	st  *SymbolTable
}

// NewWalker pairs an application with a resolved symbol table.
func NewWalker(app *mpisim.App, st *SymbolTable) *Walker {
	return &Walker{app: app, st: st}
}

// Sample walks one thread of one task and returns resolved frames,
// outermost first. Unresolvable PCs become "??" frames (the real tool
// shows the same for stripped code) rather than failing the sample.
func (w *Walker) Sample(task, thread, sample int) []trace.Frame {
	pcs := w.app.StackPCs(task, thread, sample)
	frames := make([]trace.Frame, len(pcs))
	for i, pc := range pcs {
		name, ok := w.st.Resolve(pc)
		if !ok {
			name = "??"
		}
		frames[i] = trace.Frame{Function: name}
	}
	return frames
}

// SampleDetailed walks like Sample but resolves frames at function+offset
// granularity ("BGLML_pollfcn+0x1a4"). Two samples of a moving task
// differ at this granularity even when their call paths coincide; a
// wedged task's detailed frames are bit-identical.
func (w *Walker) SampleDetailed(task, thread, sample int) []trace.Frame {
	pcs := w.app.StackPCs(task, thread, sample)
	frames := make([]trace.Frame, len(pcs))
	for i, pc := range pcs {
		name, off, ok := w.st.ResolveOffset(pc)
		if !ok {
			frames[i] = trace.Frame{Function: "??"}
			continue
		}
		frames[i] = trace.Frame{Function: fmt.Sprintf("%s+0x%x", name, off)}
	}
	return frames
}

// AppImages builds the per-module binary images for the canonical
// simulated application, sized like the paper's Atlas binaries: a 10 KB
// executable, a 4 MB MPI library, and a small libc. On BG/L the machine
// model exposes a single statically-linked image instead.
func AppImages() (map[string][]byte, error) {
	byModule := map[string][]Sym{}
	for _, f := range mpisim.Functions() {
		byModule[f.Module] = append(byModule[f.Module], Sym{Name: f.Name, Addr: f.Addr, Size: f.Size})
	}
	sizes := map[string]int{
		"a.out":     10 * 1024,
		"libmpi.so": 4 * 1024 * 1024,
		"libc.so":   512 * 1024,
	}
	out := make(map[string][]byte, len(byModule))
	for mod, syms := range byModule {
		img, err := BuildImage(syms, sizes[mod])
		if err != nil {
			return nil, err
		}
		out[mod] = img
	}
	return out, nil
}

// StaticImage builds the single statically-linked image used on BG/L,
// containing every module's symbols.
func StaticImage() ([]byte, error) {
	var syms []Sym
	for _, f := range mpisim.Functions() {
		syms = append(syms, Sym{Name: f.Name, Addr: f.Addr, Size: f.Size})
	}
	return BuildImage(syms, 8*1024*1024)
}
