package mincover

import "gocbs/internal/bytecode"

// Per-pc CFG classes. pcAnchor marks instructions in blocks that
// execute exactly once per completed invocation of the method: the
// block dominates the (virtual) exit node and is not part of a cycle.
// pcDead marks statically unreachable instructions.
const (
	pcPlain = iota
	pcAnchor
	pcDead
)

// classifyPCs partitions a method body into basic blocks and assigns
// each pc a class. allowAnchors=false demotes every anchor to plain
// (used when the program contains OpHalt, which can abandon an
// invocation mid-body and so invalidates exactly-once accounting).
//
// The analysis is deliberately conservative in every ambiguous case —
// a branch target out of range, code falling off the end of the body —
// because such paths trap at runtime and abort the whole run, and
// mincover only promises exactness for runs that complete. Extra exit
// edges can only demote anchors to plain, never promote.
func classifyPCs(code []bytecode.Instr, allowAnchors bool) []int {
	n := len(code)
	cls := make([]int, n)
	if n == 0 {
		return cls
	}

	// Blocks, from the one flow scan every rewriter uses.
	flow := bytecode.ScanFlow(code)
	blockOf := make([]int, n)
	nb := -1
	for pc := 0; pc < n; pc++ {
		if flow.Leader[pc] {
			nb++
		}
		blockOf[pc] = nb
	}
	nb++
	end := make([]int, nb) // last pc of each block
	for pc := 0; pc < n; pc++ {
		end[blockOf[pc]] = pc
		if !flow.Reach[pc] {
			cls[pc] = pcDead
		}
	}

	// Successors; block nb is the virtual exit node. A block is
	// reachable as a whole or not at all, and the exit is reachable if
	// some reachable block leads to it.
	exit := nb
	succ := make([][]int, nb+1)
	reach := make([]bool, nb+1)
	for b := 0; b < nb; b++ {
		last := end[b]
		ins := code[last]
		reach[b] = flow.Reach[last]
		add := func(s int) {
			succ[b] = append(succ[b], s)
			if s == exit && reach[b] {
				reach[exit] = true
			}
		}
		target := func() int {
			if t := int(ins.A); t >= 0 && t < n {
				return blockOf[t]
			}
			return exit // invalid target traps; treated as an exit path
		}
		next := exit // falling off the end traps: an exit path
		if last+1 < n {
			next = blockOf[last+1]
		}
		switch {
		case ins.Op == bytecode.OpJump:
			add(target())
		case ins.Op.IsCondBranch():
			add(target())
			add(next)
		case ins.Op.IsReturn() || ins.Op == bytecode.OpHalt:
			add(exit)
		default:
			add(next)
		}
	}
	if !allowAnchors || !reach[exit] {
		// No completed invocations are possible (or accounting is
		// unsound): no anchors, only dead/plain.
		return cls
	}

	// Iterative dominators over the reachable subgraph, exit included.
	pred := make([][]int, nb+1)
	for b := 0; b <= nb; b++ {
		if !reach[b] {
			continue
		}
		for _, s := range succ[b] {
			pred[s] = append(pred[s], b)
		}
	}
	words := (nb + 1 + 63) / 64
	full := make([]uint64, words)
	for b := 0; b <= nb; b++ {
		full[b/64] |= 1 << (b % 64)
	}
	dom := make([][]uint64, nb+1)
	for b := 0; b <= nb; b++ {
		dom[b] = append([]uint64(nil), full...)
	}
	dom[0] = make([]uint64, words)
	dom[0][0] |= 1
	for changed := true; changed; {
		changed = false
		for b := 1; b <= nb; b++ {
			if !reach[b] {
				continue
			}
			next := append([]uint64(nil), full...)
			for _, p := range pred[b] {
				for w := range next {
					next[w] &= dom[p][w]
				}
			}
			next[b/64] |= 1 << (b % 64)
			for w := range next {
				if next[w] != dom[b][w] {
					dom[b] = next
					changed = true
					break
				}
			}
		}
	}
	domExit := func(b int) bool { return dom[exit][b/64]&(1<<(b%64)) != 0 }

	// inCycle[b]: b reaches itself through at least one edge.
	inCycle := make([]bool, nb)
	for b := 0; b < nb; b++ {
		if !reach[b] {
			continue
		}
		seen := make([]bool, nb+1)
		stack := append([]int(nil), succ[b]...)
		for len(stack) > 0 && !inCycle[b] {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if s == b {
				inCycle[b] = true
				break
			}
			if s > nb || seen[s] || !reach[s] {
				continue
			}
			seen[s] = true
			stack = append(stack, succ[s]...)
		}
	}

	for pc := 0; pc < n; pc++ {
		b := blockOf[pc]
		if reach[b] && domExit(b) && !inCycle[b] {
			cls[pc] = pcAnchor
		}
	}
	return cls
}
