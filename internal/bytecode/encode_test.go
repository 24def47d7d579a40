package bytecode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// buildRich links a program exercising every structural feature:
// hierarchy, vtables, statics with init, call sites, const pools.
func buildRich(t *testing.T) *Program {
	t.Helper()
	pb := NewProgramBuilder()
	gSlot := pb.AddStaticInit("counter", 42)

	shape := pb.NewClass("Shape", nil)
	shape.AddField("kind", false)
	area := shape.NewMethod("area", false, 1)
	area.Const(1)
	area.Emit(OpReturn)

	circle := pb.NewClass("Circle", shape)
	circle.AddField("next", true)
	carea := circle.NewMethod("area", false, 1)
	carea.Const(1 << 40) // force a const pool entry
	carea.Emit(OpReturn)

	helper := pb.NewFunc("helper", 1)
	helper.Emit(OpLoad, 0)
	helper.Emit(OpGetStatic, int32(gSlot))
	helper.Emit(OpAdd)
	helper.Emit(OpReturn)

	main := pb.NewFunc("main", 1)
	loop := main.NewLabel()
	done := main.NewLabel()
	main.Bind(loop)
	main.Emit(OpLoad, 0)
	main.Branch(OpJumpZ, done)
	main.Emit(OpNew, int32(circle.ID()))
	main.CallVirtual(shape, "area")
	main.CallStatic(helper)
	main.Emit(OpPop)
	main.Emit(OpLoad, 0)
	main.Const(1)
	main.Emit(OpSub)
	main.Emit(OpStore, 0)
	main.Branch(OpJump, loop)
	main.Bind(done)
	main.Emit(OpGetStatic, int32(gSlot))
	main.Emit(OpReturn)
	pb.SetEntry(main)

	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := buildRich(t)
	var buf bytes.Buffer
	if err := EncodeProgram(p, &buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	q, err := DecodeProgram(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	if len(q.Methods) != len(p.Methods) || len(q.Classes) != len(p.Classes) {
		t.Fatalf("shape differs: %d/%d methods, %d/%d classes",
			len(q.Methods), len(p.Methods), len(q.Classes), len(p.Classes))
	}
	if len(q.Sites) != len(p.Sites) || q.NumStatics != p.NumStatics {
		t.Fatalf("counts differ")
	}
	if q.StaticInit[0] != 42 {
		t.Errorf("static init lost: %v", q.StaticInit)
	}
	if q.Entry.Name != p.Entry.Name {
		t.Errorf("entry = %s, want %s", q.Entry.Name, p.Entry.Name)
	}
	// Disassembly is a structural fingerprint: identical text means
	// identical classes, vtables, and code.
	if d1, d2 := DisasmProgram(p), DisasmProgram(q); d1 != d2 {
		t.Errorf("disassembly differs:\n--- original ---\n%s\n--- decoded ---\n%s", d1, d2)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := buildRich(t)
	var buf bytes.Buffer
	if err := EncodeProgram(p, &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte("NOPE"), good[4:]...)
	if _, err := DecodeProgram(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte(nil), good...)
	bad[4] = 99
	if _, err := DecodeProgram(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(good); n += 7 {
		if _, err := DecodeProgram(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("truncated file of %d bytes accepted", n)
		}
	}
	// Flip bytes through the body; decoding must either fail or
	// produce a program that still verifies (Decode re-verifies).
	for i := 8; i < len(good); i += 11 {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x5a
		q, err := DecodeProgram(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		for _, m := range q.Methods {
			if err := Verify(q, m); err != nil {
				t.Fatalf("byte flip at %d produced unverifiable method that Decode accepted: %v", i, err)
			}
		}
	}
}

// TestDecodeRefusesOwnerOutOfRange patches the owner of the last
// site of an encoded program (the file's last eight bytes are its owner
// and pc): -1 is "no owner" and decodes to the same bytes, while an owner
// past the methods or below -1 is an error like any other method ID out
// of range, not a site read as ownerless under another program's hash.
func TestDecodeRefusesOwnerOutOfRange(t *testing.T) {
	p := buildRich(t)
	var buf bytes.Buffer
	if err := EncodeProgram(p, &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	last := len(p.Sites) - 1
	for _, owner := range []int32{-1, int32(len(p.Methods)), -2} {
		mut := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(mut[len(mut)-8:], uint32(owner))
		q, err := DecodeProgram(bytes.NewReader(mut))
		if owner != -1 {
			if err == nil {
				t.Errorf("site owner %d accepted, SiteDescription = %q", owner, q.SiteDescription(last))
			}
			continue
		}
		if err != nil {
			t.Fatalf("site owner -1 refused: %v", err)
		}
		var again bytes.Buffer
		if err := EncodeProgram(q, &again); err != nil || !bytes.Equal(again.Bytes(), mut) {
			t.Errorf("an ownerless site does not re-encode to its bytes (err %v)", err)
		}
		if got, want := q.SiteDescription(last), fmt.Sprintf("site#%d", last); got != want {
			t.Errorf("SiteDescription = %q, want %q", got, want)
		}
	}
}

func TestDecodeRejectsEmptyAndGarbage(t *testing.T) {
	if _, err := DecodeProgram(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := DecodeProgram(strings.NewReader("this is not a program")); err == nil {
		t.Error("garbage accepted")
	}
}
