package mj

import (
	"strings"
	"testing"
	"testing/quick"

	"gocbs/internal/vm"
)

// run compiles and executes MJ source, returning main's result.
func run(t *testing.T, src string, args ...int64) (int64, *vm.VM) {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m := vm.New(prog)
	m.MaxSteps = 50_000_000
	v, err := m.Run(args...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v.I, m
}

// mustFail asserts compilation fails and the error mentions substr.
func mustFail(t *testing.T, src, substr string) {
	t.Helper()
	_, err := Compile(src)
	if err == nil {
		t.Fatalf("Compile should have failed (want error containing %q)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err.Error(), substr)
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("class Foo { int x; } // comment\n/* block */ 0x1F 42 <= >> &&")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	kinds := []Kind{TokClass, TokIdent, TokLBrace, TokTInt, TokIdent, TokSemi, TokRBrace, TokInt, TokInt, TokLe, TokShr, TokAndAnd, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[7].Int != 31 || toks[8].Int != 42 {
		t.Errorf("literal values = %d, %d", toks[7].Int, toks[8].Int)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("int\n  x")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	if toks[0].Pos.Line != 1 || toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("positions wrong: %+v", toks[:2])
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("int x @"); err == nil {
		t.Error("unexpected character should fail")
	}
	if _, err := Lex("/* unterminated"); err == nil {
		t.Error("unterminated comment should fail")
	}
}

func TestHelloArithmetic(t *testing.T) {
	got, _ := run(t, `
		int main() {
			return (2 + 3) * 4 - 10 / 2;
		}
	`)
	if got != 15 {
		t.Errorf("main = %d, want 15", got)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	cases := []struct {
		expr string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 - 4 - 3", 3}, // left assoc
		{"7 % 3 + 1", 2},
		{"1 << 3 + 1", 16}, // + binds tighter than <<
		{"6 & 3 | 8", 10},  // & tighter than |
		{"6 ^ 3 & 2", 4},   // & tighter than ^
		{"-2 * 3", -6},
		{"100 >> 2", 25},
	}
	for _, tc := range cases {
		got, _ := run(t, "int main() { return "+tc.expr+"; }")
		if got != tc.want {
			t.Errorf("%s = %d, want %d", tc.expr, got, tc.want)
		}
	}
}

func TestBooleansAndShortCircuit(t *testing.T) {
	got, m := run(t, `
		int g = 0;
		boolean bump() { g = g + 1; return true; }
		int main() {
			boolean a = false && bump(); // bump not called
			boolean b = true || bump();  // bump not called
			boolean c = true && bump();  // called
			if (a) { return 100; }
			if (!b) { return 200; }
			if (!c) { return 300; }
			return g;
		}
	`)
	if got != 1 {
		t.Errorf("short-circuit: g = %d, want 1", got)
	}
	_ = m
}

func TestControlFlow(t *testing.T) {
	got, _ := run(t, `
		int main() {
			int sum = 0;
			for (int i = 1; i <= 10; i = i + 1) {
				if (i % 2 == 0) { continue; }
				if (i > 7) { break; }
				sum = sum + i;
			}
			int j = 0;
			while (j < 5) { j = j + 1; }
			return sum * 100 + j;
		}
	`)
	// odd i <= 7: 1+3+5+7 = 16; j = 5.
	if got != 1605 {
		t.Errorf("got %d, want 1605", got)
	}
}

func TestGlobalsWithInitializers(t *testing.T) {
	got, _ := run(t, `
		int counter = 41;
		int negative = -7;
		int main() { return counter + negative + 8; }
	`)
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
}

func TestClassesFieldsMethods(t *testing.T) {
	got, _ := run(t, `
		class Point {
			int x;
			int y;
			Point(int ax, int ay) { this.x = ax; this.y = ay; }
			int dist2() { return x * x + y * y; }
		}
		int main() {
			Point p = new Point(3, 4);
			return p.dist2();
		}
	`)
	if got != 25 {
		t.Errorf("dist2 = %d, want 25", got)
	}
}

func TestInheritanceAndVirtualDispatch(t *testing.T) {
	got, _ := run(t, `
		class Shape {
			int area() { return 0; }
			int describe() { return area() * 10; } // dispatches on dynamic type
		}
		class Circle extends Shape {
			int r;
			Circle(int ar) { this.r = ar; }
			int area() { return 3 * r * r; }
		}
		class Square extends Shape {
			int s;
			Square(int as) { this.s = as; }
			int area() { return s * s; }
		}
		int main() {
			Shape a = new Circle(2); // area 12
			Shape b = new Square(5); // area 25
			return a.describe() + b.area();
		}
	`)
	if got != 145 {
		t.Errorf("got %d, want 145", got)
	}
}

func TestSuperConstructorChaining(t *testing.T) {
	got, _ := run(t, `
		class Base {
			int v;
			Base(int av) { this.v = av * 2; }
		}
		class Derived extends Base {
			int w;
			Derived(int aw) { super(aw); this.w = aw; }
			int total() { return v + w; }
		}
		int main() { return new Derived(10).total(); }
	`)
	if got != 30 {
		t.Errorf("got %d, want 30", got)
	}
}

func TestInheritedFieldsSharedLayout(t *testing.T) {
	got, _ := run(t, `
		class A { int x; int getX() { return x; } }
		class B extends A { int y; }
		int main() {
			B b = new B();
			b.x = 7;
			b.y = 35;
			return b.getX() + b.y;
		}
	`)
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
}

func TestArrays(t *testing.T) {
	got, _ := run(t, `
		int main() {
			int[] a = new int[10];
			for (int i = 0; i < a.length; i = i + 1) { a[i] = i * i; }
			int sum = 0;
			for (int i = 0; i < a.length; i = i + 1) { sum = sum + a[i]; }
			return sum;
		}
	`)
	if got != 285 {
		t.Errorf("sum of squares = %d, want 285", got)
	}
}

func TestArrayLengthReadOnly(t *testing.T) {
	mustFail(t, `
		int main() {
			int[] a = new int[3];
			a.length = 5;
			return 0;
		}
	`, "read-only")
}

func TestArraysViaLenField(t *testing.T) {
	got, _ := run(t, `
		int main() {
			int[] a = new int[10];
			int n = 10;
			for (int i = 0; i < n; i = i + 1) { a[i] = i * i; }
			int sum = 0;
			for (int i = 0; i < n; i = i + 1) { sum = sum + a[i]; }
			return sum;
		}
	`)
	if got != 285 {
		t.Errorf("sum of squares = %d, want 285", got)
	}
}

func TestObjectArraysAndPolymorphism(t *testing.T) {
	got, _ := run(t, `
		class N { int val() { return 1; } }
		class M extends N { int val() { return 2; } }
		int main() {
			N[] xs = new N[4];
			xs[0] = new N();
			xs[1] = new M();
			xs[2] = new M();
			xs[3] = new N();
			int sum = 0;
			for (int i = 0; i < 4; i = i + 1) { sum = sum + xs[i].val(); }
			return sum;
		}
	`)
	if got != 6 {
		t.Errorf("got %d, want 6", got)
	}
}

func TestInstanceofAndCast(t *testing.T) {
	got, _ := run(t, `
		class Animal { int kind() { return 0; } }
		class Dog extends Animal {
			int kind() { return 1; }
			int bark() { return 99; }
		}
		int check(Animal a) {
			if (a instanceof Dog) {
				Dog d = (Dog)a;
				return d.bark();
			}
			return a.kind();
		}
		int main() {
			return check(new Dog()) + check(new Animal());
		}
	`)
	if got != 99 {
		t.Errorf("got %d, want 99", got)
	}
}

func TestBadDowncastTraps(t *testing.T) {
	prog, err := Compile(`
		class A { int f() { return 0; } }
		class B extends A { int g() { return 1; } }
		int main() {
			A a = new A();
			B b = (B)a; // runtime trap
			return b.g();
		}
	`)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m := vm.New(prog)
	if _, err := m.Run(); err == nil {
		t.Fatal("bad downcast should trap at runtime")
	}
}

func TestNullHandling(t *testing.T) {
	got, _ := run(t, `
		class Node {
			Node next;
			int v;
		}
		int main() {
			Node head = new Node();
			head.v = 1;
			head.next = new Node();
			head.next.v = 2;
			int sum = 0;
			Node cur = head;
			while (cur != null) {
				sum = sum + cur.v;
				cur = cur.next;
			}
			return sum;
		}
	`)
	if got != 3 {
		t.Errorf("list sum = %d, want 3", got)
	}
}

func TestStaticMethods(t *testing.T) {
	got, _ := run(t, `
		class MathUtil {
			static int square(int x) { return x * x; }
			static int cube(int x) { return x * square(x); }
		}
		int main() { return MathUtil.cube(3); }
	`)
	if got != 27 {
		t.Errorf("cube(3) = %d, want 27", got)
	}
}

func TestFreeFunctionsAndRecursion(t *testing.T) {
	got, _ := run(t, `
		int fib(int n) {
			if (n < 2) { return n; }
			return fib(n - 1) + fib(n - 2);
		}
		int main(int n) { return fib(n); }
	`, 15)
	if got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

func TestPrint(t *testing.T) {
	_, m := run(t, `
		void emit(int x) { print(x); }
		int main() {
			print(1);
			emit(2);
			print(true);
			return 0;
		}
	`)
	want := []int64{1, 2, 1}
	if len(m.Output) != len(want) {
		t.Fatalf("output = %v, want %v", m.Output, want)
	}
	for i := range want {
		if m.Output[i] != want[i] {
			t.Errorf("output[%d] = %d, want %d", i, m.Output[i], want[i])
		}
	}
}

func TestVoidFunctions(t *testing.T) {
	got, _ := run(t, `
		int acc = 0;
		void add(int x) { acc = acc + x; }
		void addTwice(int x) {
			add(x);
			add(x);
			return;
		}
		int main() {
			addTwice(21);
			return acc;
		}
	`)
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
}

func TestNestedArrays(t *testing.T) {
	got, _ := run(t, `
		int main() {
			int[][] grid = new int[3][];
			for (int i = 0; i < 3; i = i + 1) {
				grid[i] = new int[3];
				for (int j = 0; j < 3; j = j + 1) {
					grid[i][j] = i * 3 + j;
				}
			}
			return grid[2][1];
		}
	`)
	if got != 7 {
		t.Errorf("grid[2][1] = %d, want 7", got)
	}
}

func TestHexLiteralsAndBitOps(t *testing.T) {
	got, _ := run(t, `
		int main() {
			int mask = 0xFF;
			int v = 0x1234;
			return (v >> 8) & mask;
		}
	`)
	if got != 0x12 {
		t.Errorf("got %#x, want 0x12", got)
	}
}

func TestShadowingInBlocks(t *testing.T) {
	got, _ := run(t, `
		int main() {
			int x = 1;
			{
				int y = 10;
				x = x + y;
			}
			{
				int y = 100;
				x = x + y;
			}
			return x;
		}
	`)
	if got != 111 {
		t.Errorf("got %d, want 111", got)
	}
}

func TestCastVsParenDisambiguation(t *testing.T) {
	got, _ := run(t, `
		class Wrapper { int v; }
		int main() {
			int x = 5;
			int y = (x) - 2;        // paren expr, not a cast
			Wrapper w = new Wrapper();
			w.v = y;
			return w.v;
		}
	`)
	if got != 3 {
		t.Errorf("got %d, want 3", got)
	}
}

// --- checker error cases ---

func TestCheckUndefinedVariable(t *testing.T) {
	mustFail(t, "int main() { return nope; }", "undefined")
}

func TestCheckTypeMismatch(t *testing.T) {
	mustFail(t, "int main() { boolean b = 5; return 0; }", "cannot initialize")
}

func TestCheckConditionMustBeBool(t *testing.T) {
	mustFail(t, "int main() { if (1) { return 0; } return 1; }", "must be boolean")
}

func TestCheckMissingReturn(t *testing.T) {
	mustFail(t, "int main(int n) { if (n > 0) { return 1; } }", "missing return")
}

func TestCheckUnreachableCode(t *testing.T) {
	mustFail(t, "int main() { return 1; int x = 2; }", "unreachable")
}

func TestCheckBreakOutsideLoop(t *testing.T) {
	mustFail(t, "int main() { break; }", "break outside loop")
}

func TestCheckUnknownClass(t *testing.T) {
	mustFail(t, "int main() { Missing m = null; return 0; }", "unknown type")
}

func TestCheckInheritanceCycle(t *testing.T) {
	mustFail(t, `
		class A extends B { }
		class B extends A { }
		int main() { return 0; }
	`, "cycle")
}

func TestCheckOverrideArity(t *testing.T) {
	mustFail(t, `
		class A { int f(int x) { return x; } }
		class B extends A { int f(int x, int y) { return x; } }
		int main() { return 0; }
	`, "different parameter count")
}

func TestCheckNoOverloading(t *testing.T) {
	mustFail(t, `
		class A {
			int f(int x) { return x; }
			int f(boolean b) { return 0; }
		}
		int main() { return 0; }
	`, "no overloading")
}

func TestCheckDupClass(t *testing.T) {
	mustFail(t, "class A { } class A { } int main() { return 0; }", "redeclared")
}

func TestCheckArgCount(t *testing.T) {
	mustFail(t, `
		int f(int a, int b) { return a + b; }
		int main() { return f(1); }
	`, "takes 2 arguments")
}

func TestCheckThisInStatic(t *testing.T) {
	mustFail(t, `
		class A {
			int x;
			static int f() { return this.x; }
		}
		int main() { return 0; }
	`, "this is not available")
}

func TestCheckVoidValue(t *testing.T) {
	mustFail(t, `
		void f() { }
		int main() { int x = f(); return x; }
	`, "cannot initialize")
}

func TestCheckSuperOutsideCtor(t *testing.T) {
	mustFail(t, `
		class A { A(int x) { } }
		class B extends A {
			int f() { super(1); return 0; }
		}
		int main() { return 0; }
	`, "only legal inside a constructor")
}

func TestCheckFieldShadowing(t *testing.T) {
	mustFail(t, `
		class A { int x; }
		class B extends A { int x; }
		int main() { return 0; }
	`, "shadows inherited")
}

func TestCheckAssignToCall(t *testing.T) {
	_, err := Compile("int f() { return 1; } int main() { f() = 2; return 0; }")
	if err == nil {
		t.Fatal("assignment to call should fail to parse")
	}
}

func TestCheckExprStmtMustBeCall(t *testing.T) {
	mustFail(t, "int main() { 1 + 2; return 0; }", "must be a call")
}

func TestCheckStaticVirtualConflict(t *testing.T) {
	mustFail(t, `
		class A { int f() { return 1; } }
		class B extends A { static int f() { return 2; } }
		int main() { return 0; }
	`, "static/virtual mismatch")
}

func TestCheckCastUnrelated(t *testing.T) {
	mustFail(t, `
		class A { }
		class B { }
		int main() {
			A a = new A();
			B b = (B)a;
			return 0;
		}
	`, "unrelated")
}

// Property test: MJ arithmetic agrees with Go for a fixed expression
// over random inputs.
func TestMJArithmeticMatchesGo(t *testing.T) {
	prog, err := Compile(`
		int main(int a, int b) {
			int d = b | 1;
			return (a * 3 + b) ^ (a - a / d) + (b % d);
		}
	`)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	f := func(a, b int32) bool {
		m := vm.New(prog)
		v, err := m.Run(int64(a), int64(b))
		if err != nil {
			return false
		}
		A, B := int64(a), int64(b)
		d := B | 1
		want := (A*3 + B) ^ (A - A/d + (B % d)) // MJ: ^ lower than +, + left of ^ groups (a - a/d) + (b%d)
		return v.I == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property test: compiled programs are deterministic.
func TestCompileDeterministic(t *testing.T) {
	src := `
		class C { int f() { return 3; } }
		int main() { return new C().f(); }
	`
	p1, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Methods) != len(p2.Methods) || len(p1.Sites) != len(p2.Sites) {
		t.Error("recompilation changed program shape")
	}
	for i := range p1.Methods {
		if p1.Methods[i].Name != p2.Methods[i].Name {
			t.Errorf("method %d: %s vs %s", i, p1.Methods[i].Name, p2.Methods[i].Name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"int main( { return 0; }",
		"class { }",
		"int main() { return 0 }",
		"int main() { if return; }",
		"int main() { new; }",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("should not compile: %q", src)
		}
	}
}

func TestEntryNotFound(t *testing.T) {
	_, err := CompileEntry("int f() { return 0; }", "main")
	if err == nil || !strings.Contains(err.Error(), "no free function named main") {
		t.Fatalf("err = %v", err)
	}
}
