package bytecode

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary program format ("MJBC"), the class-file analog: a compiled,
// linked program serialized so tools can compile once (mjc -o) and
// execute elsewhere without the front end. Decoding re-verifies every
// method, so a corrupted or hand-forged file is rejected rather than
// executed.
//
// Layout (little endian; strings are uvarint length + bytes):
//
//	magic "MJBC", u32 version
//	statics:  uvarint n, then n × {string name, i64 init}
//	classes:  uvarint n, then n × {string name, i32 superID,
//	           uvarint nfields × {string name, u8 ref}}
//	methods:  uvarint n, then n × {string name, i32 classID, u8 static,
//	           i32 vslot, u32 nargs, u32 nlocals, u32 maxstack,
//	           uvarint nconsts × i64,
//	           uvarint ninstrs × {u8 op, i32 a, i32 b}}
//	vtables:  per class: uvarint nslots × i32 methodID
//	entry:    i32 methodID
//	sites:    uvarint n, then n × {i32 ownerMethodID, u32 pc}

const (
	mjbcMagic   = "MJBC"
	mjbcVersion = 1
)

type bcWriter struct {
	w   *bufio.Writer
	err error
}

func (w *bcWriter) bytes(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *bcWriter) u8(v uint8) { w.bytes([]byte{v}) }
func (w *bcWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.bytes(b[:])
}
func (w *bcWriter) i32(v int32) { w.u32(uint32(v)) }
func (w *bcWriter) i64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	w.bytes(b[:])
}

func (w *bcWriter) uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	w.bytes(b[:n])
}

func (w *bcWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.bytes([]byte(s))
}

// EncodeProgram serializes a linked program.
func EncodeProgram(p *Program, out io.Writer) error {
	w := &bcWriter{w: bufio.NewWriter(out)}
	w.bytes([]byte(mjbcMagic))
	w.u32(mjbcVersion)

	w.uvarint(uint64(p.NumStatics))
	for i := 0; i < p.NumStatics; i++ {
		w.str(p.StaticNames[i])
		var init int64
		if i < len(p.StaticInit) {
			init = p.StaticInit[i]
		}
		w.i64(init)
	}

	w.uvarint(uint64(len(p.Classes)))
	for _, c := range p.Classes {
		w.str(c.Name)
		super := int32(-1)
		if c.Super != nil {
			super = int32(c.Super.ID)
		}
		w.i32(super)
		w.uvarint(uint64(len(c.Fields)))
		for _, f := range c.Fields {
			w.str(f.Name)
			ref := uint8(0)
			if f.Ref {
				ref = 1
			}
			w.u8(ref)
		}
	}

	w.uvarint(uint64(len(p.Methods)))
	for _, m := range p.Methods {
		w.str(m.Name)
		cls := int32(-1)
		if m.Class != nil {
			cls = int32(m.Class.ID)
		}
		w.i32(cls)
		st := uint8(0)
		if m.Static {
			st = 1
		}
		w.u8(st)
		w.i32(int32(m.VSlot))
		w.u32(uint32(m.NArgs))
		w.u32(uint32(m.NLocals))
		w.u32(uint32(m.MaxStack))
		w.uvarint(uint64(len(m.Consts)))
		for _, c := range m.Consts {
			w.i64(c)
		}
		w.uvarint(uint64(len(m.Code)))
		for _, ins := range m.Code {
			w.u8(uint8(ins.Op))
			w.i32(ins.A)
			w.i32(ins.B)
		}
	}

	for _, c := range p.Classes {
		w.uvarint(uint64(len(c.VTable)))
		for _, m := range c.VTable {
			id := int32(-1)
			if m != nil {
				id = int32(m.ID)
			}
			w.i32(id)
		}
	}

	entry := int32(-1)
	if p.Entry != nil {
		entry = int32(p.Entry.ID)
	}
	w.i32(entry)

	w.uvarint(uint64(len(p.Sites)))
	for _, s := range p.Sites {
		w.i32(int32(s.Owner))
		w.u32(uint32(s.PC))
	}

	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

type bcReader struct {
	r   *bufio.Reader
	err error
}

func (r *bcReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *bcReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = err
		return nil
	}
	return b
}

func (r *bcReader) u8() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *bcReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *bcReader) i32() int32 { return int32(r.u32()) }

func (r *bcReader) i64() int64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *bcReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = err
		return 0
	}
	return v
}

// count reads a collection length and bounds it (anti-DoS for corrupt
// files).
func (r *bcReader) count(what string, max uint64) int {
	v := r.uvarint()
	if v > max {
		r.fail("%s count %d exceeds limit %d", what, v, max)
		return 0
	}
	return int(v)
}

func (r *bcReader) str() string {
	n := r.count("string", 1<<20)
	b := r.bytes(n)
	return string(b)
}

// DecodeProgram parses and re-verifies a serialized program.
func DecodeProgram(in io.Reader) (*Program, error) {
	r := &bcReader{r: bufio.NewReader(in)}
	if magic := r.bytes(4); r.err != nil || string(magic) != mjbcMagic {
		if r.err != nil {
			return nil, fmt.Errorf("read magic: %w", r.err)
		}
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	if v := r.u32(); v != mjbcVersion {
		return nil, fmt.Errorf("unsupported version %d", v)
	}

	p := &Program{}
	nStatics := r.count("static", 1<<20)
	p.NumStatics = nStatics
	for i := 0; i < nStatics; i++ {
		p.StaticNames = append(p.StaticNames, r.str())
		p.StaticInit = append(p.StaticInit, r.i64())
	}

	nClasses := r.count("class", 1<<20)
	supers := make([]int32, nClasses)
	for i := 0; i < nClasses; i++ {
		c := &Class{ID: i, Name: r.str()}
		supers[i] = r.i32()
		nFields := r.count("field", 1<<20)
		for f := 0; f < nFields; f++ {
			c.Fields = append(c.Fields, FieldDef{Name: r.str(), Ref: r.u8() != 0})
		}
		p.Classes = append(p.Classes, c)
	}
	for i, s := range supers {
		if s >= 0 {
			if int(s) >= nClasses {
				return nil, fmt.Errorf("class %d: super %d out of range", i, s)
			}
			p.Classes[i].Super = p.Classes[s]
		}
	}

	nMethods := r.count("method", 1<<20)
	classOf := make([]int32, nMethods)
	for i := 0; i < nMethods; i++ {
		m := &Method{ID: i, Name: r.str()}
		classOf[i] = r.i32()
		m.Static = r.u8() != 0
		m.VSlot = int(r.i32())
		m.NArgs = int(r.u32())
		m.NLocals = int(r.u32())
		m.MaxStack = int(r.u32())
		if m.NArgs < 0 || m.NLocals < m.NArgs || m.NLocals > 1<<20 {
			return nil, fmt.Errorf("method %s: bad locals (%d args, %d locals)", m.Name, m.NArgs, m.NLocals)
		}
		nConsts := r.count("const", 1<<20)
		for c := 0; c < nConsts; c++ {
			m.Consts = append(m.Consts, r.i64())
		}
		nCode := r.count("instr", 1<<24)
		for c := 0; c < nCode; c++ {
			m.Code = append(m.Code, Instr{Op: Opcode(r.u8()), A: r.i32(), B: r.i32()})
		}
		m.Size = len(m.Code)
		m.Trivial = isTrivial(m.Code)
		p.Methods = append(p.Methods, m)
	}
	for i, c := range classOf {
		if c >= 0 {
			if int(c) >= nClasses {
				return nil, fmt.Errorf("method %d: class %d out of range", i, c)
			}
			p.Methods[i].Class = p.Classes[c]
			p.Classes[c].Methods = append(p.Classes[c].Methods, p.Methods[i])
		}
	}

	for _, c := range p.Classes {
		nSlots := r.count("vtable slot", 1<<16)
		for s := 0; s < nSlots; s++ {
			id := r.i32()
			if id < 0 {
				c.VTable = append(c.VTable, nil)
				continue
			}
			if int(id) >= nMethods {
				return nil, fmt.Errorf("class %s: vtable method %d out of range", c.Name, id)
			}
			c.VTable = append(c.VTable, p.Methods[id])
		}
	}

	entry := r.i32()
	if entry >= 0 {
		if int(entry) >= nMethods {
			return nil, fmt.Errorf("entry method %d out of range", entry)
		}
		p.Entry = p.Methods[entry]
	}

	nSites := r.count("call site", 1<<24)
	for i := 0; i < nSites; i++ {
		owner := r.i32()
		pc := r.u32()
		if owner < -1 || int(owner) >= nMethods {
			return nil, fmt.Errorf("site %d: owner %d out of range", i, owner)
		}
		if pc > math.MaxInt32 {
			return nil, fmt.Errorf("site %d: pc out of range", i)
		}
		p.Sites = append(p.Sites, Site{Owner: int(owner), PC: int(pc)})
	}

	if r.err != nil {
		return nil, r.err
	}
	if p.Entry == nil {
		return nil, fmt.Errorf("program has no entry point")
	}
	if !p.Entry.Static {
		return nil, fmt.Errorf("entry %s is not static", p.Entry.Name)
	}
	for _, m := range p.Methods {
		if err := Verify(p, m); err != nil {
			return nil, fmt.Errorf("verify %s: %w", m.Name, err)
		}
	}
	return p, nil
}
