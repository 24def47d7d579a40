package mj

import (
	goast "go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"strings"
	"testing"

	"gocbs/internal/vm"
)

// refRun executes a generated program's main under the reference
// interpreter.
func refRun(t *testing.T, src string, arg int64) (int64, []int64) {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("lex: %v\n%s", err, src)
	}
	ast, err := Parse(toks)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if err := Check(ast); err != nil {
		t.Fatalf("check: %v\n%s", err, src)
	}
	in := NewRefInterp(ast, 5_000_000)
	r, err := in.CallFunction("main", arg)
	if err != nil {
		t.Fatalf("reference run: %v\n%s", err, src)
	}
	return r, in.Output
}

// vmRun compiles and executes under the bytecode VM.
func vmRun(t *testing.T, src string, arg int64) (int64, []int64) {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	m := vm.New(prog)
	m.MaxSteps = 50_000_000
	v, err := m.Run(arg)
	if err != nil {
		t.Fatalf("vm run: %v\n%s", err, src)
	}
	return v.I, m.Output
}

func sameRun(t *testing.T, label, src string, r1 int64, o1 []int64, r2 int64, o2 []int64) {
	t.Helper()
	if r1 != r2 {
		t.Fatalf("%s: results differ (%d vs %d)\n%s", label, r1, r2, src)
	}
	if len(o1) != len(o2) {
		t.Fatalf("%s: output lengths differ (%d vs %d)\n%s", label, len(o1), len(o2), src)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("%s: output[%d] differs (%d vs %d)\n%s", label, i, o1[i], o2[i], src)
		}
	}
}

// TestDifferentialGeneratedPrograms is the big differential test: for
// many random well-typed programs, the reference AST interpreter and
// the compiled VM must agree exactly on result and print output.
func TestDifferentialGeneratedPrograms(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	for seed := int64(0); seed < int64(n); seed++ {
		src := GenerateProgram(seed, 4)
		arg := seed * 13 % 97
		refR, refO := refRun(t, src, arg)
		vmR, vmO := vmRun(t, src, arg)
		sameRun(t, "ref-vs-vm", src, refR, refO, vmR, vmO)
	}
}

// TestDifferentialGeneratedProgramsRoundTrip adds the printer to the
// loop: print the generated program, re-compile, and compare again.
func TestDifferentialGeneratedProgramsRoundTrip(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 5
	}
	for seed := int64(100); seed < int64(100+n); seed++ {
		src := GenerateProgram(seed, 3)
		toks, err := Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		ast, err := Parse(toks)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		printed := Print(ast)
		arg := seed % 53
		r1, o1 := vmRun(t, src, arg)
		r2, o2 := vmRun(t, printed, arg)
		sameRun(t, "orig-vs-printed", src, r1, o1, r2, o2)
	}
}

// TestGeneratedProgramsAreDeterministic pins the generator itself.
func TestGeneratedProgramsAreDeterministic(t *testing.T) {
	a := GenerateProgram(7, 4)
	b := GenerateProgram(7, 4)
	if a != b {
		t.Fatal("generator is not deterministic")
	}
	c := GenerateProgram(8, 4)
	if a == c {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestRefInterpBasics sanity-checks the reference interpreter against
// hand-written programs (shared semantics with the VM tests).
func TestRefInterpBasics(t *testing.T) {
	src := `
		int g = 5;
		class A { int f(int x) { return x + 1; } }
		class B extends A { int f(int x) { return x * 2; } }
		int twice(int x) { return x + x; }
		int main(int n) {
			A a = new B();
			int acc = a.f(n) + twice(n) + g;
			print(acc);
			if (a instanceof B) { acc = acc + 100; }
			A aa = (A)a;
			int[] xs = new int[3];
			xs[1] = 7;
			for (int i = 0; i < xs.length; i = i + 1) { acc = acc + xs[i]; }
			while (acc > 500) { acc = acc - 500; break; }
			return acc + aa.f(1);
		}
	`
	refR, refO := refRun(t, src, 10)
	vmR, vmO := vmRun(t, src, 10)
	sameRun(t, "basics", src, refR, refO, vmR, vmO)
}

// TestRefInterpTrapsMatchVM checks both engines reject the same
// runtime errors.
func TestRefInterpTrapsMatchVM(t *testing.T) {
	cases := []string{
		"int main(int n) { return n / (n - n); }",                // div by zero
		"int main(int n) { int[] a = new int[2]; return a[5]; }", // bounds
		`class A { int f() { return 1; } }
		 int main(int n) { A a = null; return a.f(); }`, // nil call
	}
	for _, src := range cases {
		toks, _ := Lex(src)
		ast, err := Parse(toks)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(ast); err != nil {
			t.Fatal(err)
		}
		in := NewRefInterp(ast, 1_000_000)
		_, refErr := in.CallFunction("main", 3)
		prog, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(prog)
		_, vmErr := m.Run(3)
		if (refErr == nil) != (vmErr == nil) {
			t.Errorf("trap disagreement on %q: ref=%v vm=%v", src, refErr, vmErr)
		}
		if refErr == nil {
			t.Errorf("expected a trap for %q", src)
		}
	}
}

// TestRefInterpFuelExhaustion ensures runaway programs are cut off by
// fuel: loops whose body does and does no work, a for with no
// condition, and mutual recursion (which runs out of fuel before it
// reaches the call-depth bound). MJ's checker does not treat an endless
// loop as terminating, so each main ends in a return.
func TestRefInterpFuelExhaustion(t *testing.T) {
	for _, src := range []string{
		`int main(int n) { int x = 0; while (true) { x = x + 1; } return x; }`,
		`int main(int n) { while (true) {} return 0; }`,
		`int main(int n) { int x = 0; for (;;) { x = x + n; } return x; }`,
		`int main(int n) { for (int i = 0; ; i = i + 1) {} return 0; }`,
		`int f(int x) { return g(x + 1); } int g(int x) { return f(x - 1); } int main(int n) { return f(n); }`,
	} {
		toks, err := Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		ast, err := Parse(toks)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if err := Check(ast); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if _, err := NewRefInterp(ast, 10_000).CallFunction("main", 1); err == nil || !strings.Contains(err.Error(), "out of fuel") {
			t.Errorf("%s: got %v, want out of fuel", src, err)
		}
	}
}

// TestRefInterpIsIndependent holds the reference interpreter to what
// makes it an oracle: it shares nothing with the bytecode compiler but
// the front end. interp.go imports only fmt and names no top-level
// declaration of codegen.go.
func TestRefInterpIsIndependent(t *testing.T) {
	fset := gotoken.NewFileSet()
	interp, err := goparser.ParseFile(fset, "interp.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	codegen, err := goparser.ParseFile(fset, "codegen.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var imports []string
	for _, im := range interp.Imports {
		imports = append(imports, im.Path.Value)
	}
	if len(imports) != 1 || imports[0] != `"fmt"` {
		t.Errorf("interp.go imports %v, want only \"fmt\"", imports)
	}
	compiler := map[string]bool{}
	for _, d := range codegen.Decls {
		switch d := d.(type) {
		case *goast.FuncDecl:
			if d.Recv == nil { // a method is named only through its type
				compiler[d.Name.Name] = true
			}
		case *goast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *goast.TypeSpec:
					compiler[sp.Name.Name] = true
				case *goast.ValueSpec:
					for _, n := range sp.Names {
						compiler[n.Name] = true
					}
				}
			}
		}
	}
	if len(compiler) == 0 {
		t.Fatal("codegen.go declares nothing at top level")
	}
	goast.Inspect(interp, func(n goast.Node) bool {
		if id, ok := n.(*goast.Ident); ok && compiler[id.Name] {
			t.Errorf("interp.go:%d names codegen.go's %s", fset.Position(id.Pos()).Line, id.Name)
		}
		return true
	})
}
