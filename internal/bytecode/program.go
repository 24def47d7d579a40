package bytecode

import "fmt"

// Method is one compiled MJ method. Static methods have VSlot == -1.
// Virtual methods occupy a vtable slot shared with every override.
//
// NArgs counts the receiver for virtual methods: a virtual method with
// two declared parameters has NArgs == 3 and the receiver in local 0.
type Method struct {
	ID     int
	Name   string // qualified, e.g. "List.insert"
	Class  *Class // declaring class (nil only for synthetic link stubs)
	Static bool
	VSlot  int // vtable slot, or -1 for static methods

	NArgs   int
	NLocals int // total local slots, >= NArgs
	Code    []Instr
	Consts  []int64 // pool for OpConstL

	// MaxStack is the verified maximum operand stack depth.
	MaxStack int

	// Size is the abstract bytecode size used by inlining heuristics
	// (the paper's "size of executed bytecodes"); it equals len(Code)
	// at link time and is recomputed after inlining transforms.
	Size int

	// Trivial marks methods whose body is smaller than a calling
	// sequence; these are inlined even at the lowest optimization level
	// (the paper's accuracy-experiment baseline).
	Trivial bool
}

// FieldDef describes one object field.
type FieldDef struct {
	Name string
	Ref  bool // true if the field holds a reference rather than an int
}

// Class is a linked MJ class. Fields are flattened over the inheritance
// chain: a subclass's fields start at index len(super fields), so
// superclass code can access inherited fields in subclass instances at
// unchanged indices.
type Class struct {
	ID     int
	Name   string
	Super  *Class
	Fields []FieldDef // flattened, inherited first

	// VTable maps virtual slots to the most-derived implementation
	// visible from this class. Slots are assigned per root hierarchy.
	VTable []*Method

	// Methods lists the methods declared directly by this class.
	Methods []*Method
}

// SubclassOf reports whether c is cls or a (transitive) subclass of cls.
func (c *Class) SubclassOf(cls *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == cls {
			return true
		}
	}
	return false
}

// Program is a fully linked MJ program, ready for execution.
type Program struct {
	Classes []*Class  // indexed by Class.ID
	Methods []*Method // indexed by Method.ID

	NumStatics  int
	StaticNames []string // indexed by static slot
	StaticInit  []int64  // constant initial values, indexed by slot

	// Entry is the program's entry point, a static method.
	Entry *Method

	// Sites is indexed by the call-site IDs the linker assigns. They are
	// stable across inlining: spliced call instructions keep their IDs,
	// so profiles remain attributable.
	Sites []Site
}

// Site is one call site as the linker declared it: the ID of the method
// whose body held it, -1 for none, and its pc there. The pair is the
// site's identity across builds, not a diagnostic: carry-forward maps a
// site whose owner's body is unchanged to the new build's site by it.
type Site struct {
	Owner int `json:"owner"`
	PC    int `json:"pc"`
}

// Clone returns a deep copy of the program. The copy shares nothing
// mutable with the original: method code and constant pools, class
// field lists and vtables, and the site table are all fresh slices, and
// every *Method/*Class reference (Entry, VTable, Class.Methods,
// Method.Class, Class.Super) is remapped to the cloned counterpart.
// Inlining rewrites methods in place, so callers that cache a compiled
// program must hand out clones, never the original.
//
// Clone relies on the linker invariant that every referenced method
// and class appears in p.Methods / p.Classes.
func (p *Program) Clone() *Program {
	q := &Program{
		NumStatics:  p.NumStatics,
		StaticNames: append([]string(nil), p.StaticNames...),
		StaticInit:  append([]int64(nil), p.StaticInit...),
		Sites:       append([]Site(nil), p.Sites...),
	}

	mmap := make(map[*Method]*Method, len(p.Methods))
	q.Methods = make([]*Method, len(p.Methods))
	for i, m := range p.Methods {
		if m == nil {
			continue
		}
		n := new(Method)
		*n = *m
		n.Code = append([]Instr(nil), m.Code...)
		n.Consts = append([]int64(nil), m.Consts...)
		q.Methods[i] = n
		mmap[m] = n
	}

	cmap := make(map[*Class]*Class, len(p.Classes))
	q.Classes = make([]*Class, len(p.Classes))
	for i, c := range p.Classes {
		if c == nil {
			continue
		}
		n := new(Class)
		*n = *c
		n.Fields = append([]FieldDef(nil), c.Fields...)
		q.Classes[i] = n
		cmap[c] = n
	}

	// Second pass: remap every cross-reference into the clone.
	for i, c := range p.Classes {
		if c == nil {
			continue
		}
		n := q.Classes[i]
		n.Super = cmap[c.Super]
		n.VTable = make([]*Method, len(c.VTable))
		for j, m := range c.VTable {
			n.VTable[j] = mmap[m]
		}
		n.Methods = make([]*Method, len(c.Methods))
		for j, m := range c.Methods {
			n.Methods[j] = mmap[m]
		}
	}
	for i, m := range p.Methods {
		if m == nil {
			continue
		}
		q.Methods[i].Class = cmap[m.Class]
	}
	q.Entry = mmap[p.Entry]
	return q
}

// MethodByName returns the method with the given qualified name, or nil.
func (p *Program) MethodByName(name string) *Method {
	for _, m := range p.Methods {
		if m != nil && m.Name == name {
			return m
		}
	}
	return nil
}

// ClassByName returns the class with the given name, or nil.
func (p *Program) ClassByName(name string) *Class {
	for _, c := range p.Classes {
		if c != nil && c.Name == name {
			return c
		}
	}
	return nil
}

// StaticSlot returns the slot index of the named static, or -1.
func (p *Program) StaticSlot(name string) int {
	for i, n := range p.StaticNames {
		if n == name {
			return i
		}
	}
	return -1
}

// TotalCodeSize returns the total instruction count over all methods,
// the analog of Table 1's "size of executed bytecodes".
func (p *Program) TotalCodeSize() int {
	n := 0
	for _, m := range p.Methods {
		if m != nil {
			n += len(m.Code)
		}
	}
	return n
}

// SiteDescription renders a call-site ID as "Method@pc" for diagnostics.
func (p *Program) SiteDescription(site int) string {
	if site < 0 || site >= len(p.Sites) || p.Sites[site].Owner < 0 {
		return fmt.Sprintf("site#%d", site)
	}
	return fmt.Sprintf("%s@%d", p.Methods[p.Sites[site].Owner].Name, p.Sites[site].PC)
}
