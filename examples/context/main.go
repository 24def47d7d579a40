// Context: the paper's §8 extension — because CBS samples by walking
// the call stack, capturing the *whole* stack instead of the top two
// frames turns the same mechanism into a context-sensitive profiler
// that builds a calling-context tree (CCT).
//
//	go run ./examples/context
package main

import (
	"fmt"
	"log"

	"gocbs/internal/mj"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// The same helper is hot from two different contexts; a flat DCG merges
// them, the CCT keeps them apart.
const src = `
	int shared(int x) { return x * x + 1; }
	int fromA(int x) { return shared(x) + 1; }
	int fromB(int x) { return shared(x) + 2; }
	int main(int n) {
		int acc = 0;
		for (int i = 0; i < n; i = i + 1) {
			acc = acc + fromA(i);
			if (i % 3 == 0) { acc = acc + fromB(i); }
			acc = acc & 0xFFFF;
		}
		return acc;
	}
`

func main() {
	prog, err := mj.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	pc := profiler.DefaultCBS(profiler.FlavourRVM)
	pc.Seed = 9
	pc.FullStack = true // capture whole stacks -> calling-context tree
	cbs := profiler.NewCBS(pc)
	m := vm.New(prog)
	m.SetProfiler(cbs)
	m.SetTimer(150_000)
	if _, err := m.Run(2_000_000); err != nil {
		log.Fatal(err)
	}

	name := func(id int) string {
		if id < 0 {
			return "<root>"
		}
		return prog.Methods[id].Name
	}

	fmt.Println("Flat DCG (contexts merged):")
	fmt.Print(cbs.Graph.Dump(name, nil))

	fmt.Println("\nCalling-context tree (contexts separated):")
	var walk func(n *profile.CCTNode, indent string)
	walk = func(n *profile.CCTNode, indent string) {
		for _, c := range n.Children() {
			fmt.Printf("%s%s  (%.0f samples)\n", indent, name(c.Method), c.Weight)
			walk(c, indent+"    ")
		}
	}
	walk(cbs.Tree.Root, "  ")
	fmt.Printf("\nCCT: %d context nodes from %d samples\n", cbs.Tree.NumNodes(), int(cbs.Tree.Total()))
	fmt.Println("Note shared() appears once per calling context, not once overall.")
}
