package bytecode_test

// Clone isolation tests live in an external test package so they can
// compile a real benchmark through the MJ frontend and mutate clones
// with the actual inliner — the workload the compiled-program cache
// serves in production.

import (
	"bytes"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
)

func compileBench(t *testing.T, name string) *bytecode.Program {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("benchmark %s missing", name)
	}
	p, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func encode(t *testing.T, p *bytecode.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := bytecode.EncodeProgram(p, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCloneIsFaithful checks a clone encodes to the exact bytes of the
// original and that every cross-reference points inside the clone, not
// back into the original.
func TestCloneIsFaithful(t *testing.T) {
	orig := compileBench(t, "compress")
	origBytes := encode(t, orig)

	c := orig.Clone()
	if got := encode(t, c); !bytes.Equal(got, origBytes) {
		t.Fatal("clone encodes differently from original")
	}

	if c.Entry == orig.Entry {
		t.Fatal("Entry not remapped")
	}
	if c.Entry != c.Methods[orig.Entry.ID] {
		t.Fatal("Entry does not point at the cloned method table")
	}
	for i, m := range c.Methods {
		if m == nil {
			continue
		}
		if m == orig.Methods[i] {
			t.Fatalf("method %d aliases the original", i)
		}
		if m.Class != nil && m.Class != c.Classes[m.Class.ID] {
			t.Fatalf("method %d Class points outside the clone", i)
		}
		if len(m.Code) > 0 && &m.Code[0] == &orig.Methods[i].Code[0] {
			t.Fatalf("method %d shares its Code slice with the original", i)
		}
	}
	for i, cl := range c.Classes {
		if cl == nil {
			continue
		}
		if cl == orig.Classes[i] {
			t.Fatalf("class %d aliases the original", i)
		}
		if cl.Super != nil && cl.Super != c.Classes[cl.Super.ID] {
			t.Fatalf("class %d Super points outside the clone", i)
		}
		for j, m := range cl.VTable {
			if m != nil && m != c.Methods[m.ID] {
				t.Fatalf("class %d vtable slot %d points outside the clone", i, j)
			}
		}
	}
}

// TestCloneIsolatesInlining runs the real optimizer over one clone and
// checks the original and a sibling clone stay bit-for-bit unchanged —
// the property the compiled-program cache depends on, and the one
// shared-slice aliasing in bytecode would break.
func TestCloneIsolatesInlining(t *testing.T) {
	orig := compileBench(t, "compress")
	origBytes := encode(t, orig)

	victim := orig.Clone()
	sibling := orig.Clone()

	// Trivial inlining first (the JIT-only baseline), then the
	// aggressive profile-free policy: both rewrite method bodies in
	// place.
	if _, err := inline.Optimize(victim, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := inline.Optimize(victim, inline.NewNewLinear(), nil, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encode(t, victim), origBytes) {
		t.Fatal("optimizer did not change the victim clone; test proves nothing")
	}

	if got := encode(t, orig); !bytes.Equal(got, origBytes) {
		t.Fatal("inlining a clone mutated the original program")
	}
	if got := encode(t, sibling); !bytes.Equal(got, origBytes) {
		t.Fatal("inlining a clone mutated a sibling clone")
	}
}

// TestCloneIsolatesDirectMutation defaces every shared-slice candidate
// on a clone by hand and checks the original survives.
func TestCloneIsolatesDirectMutation(t *testing.T) {
	orig := compileBench(t, "compress")
	origBytes := encode(t, orig)

	c := orig.Clone()
	for _, m := range c.Methods {
		if m == nil {
			continue
		}
		for i := range m.Code {
			m.Code[i] = bytecode.Instr{Op: bytecode.OpNop}
		}
		for i := range m.Consts {
			m.Consts[i] = -1
		}
		m.Name = "defaced"
	}
	for _, cl := range c.Classes {
		if cl == nil {
			continue
		}
		for i := range cl.VTable {
			cl.VTable[i] = nil
		}
		for i := range cl.Fields {
			cl.Fields[i] = bytecode.FieldDef{Name: "defaced"}
		}
	}
	for i := range c.StaticInit {
		c.StaticInit[i] = -1
	}
	for i := range c.Sites {
		c.Sites[i] = bytecode.Site{Owner: -1, PC: -1}
	}

	if got := encode(t, orig); !bytes.Equal(got, origBytes) {
		t.Fatal("defacing a clone mutated the original program")
	}
}
