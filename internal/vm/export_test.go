package vm

import "gocbs/internal/bytecode"

// What the tests outside the package may see of the execution image and
// of how calls are made.

// ImageOf returns the VM's execution image of m, made now if need be.
func (vm *VM) ImageOf(m *bytecode.Method) []bytecode.Instr { return vm.table(m).img }

// WindowRow is one row of the window catalogue.
type WindowRow struct {
	Op    bytecode.Opcode
	Name  string
	Width int
}

// Windows lists the catalogue in the order its rows are tried.
func Windows() []WindowRow {
	rows := make([]WindowRow, len(windows))
	for i, w := range windows {
		rows[i] = WindowRow{w.op, w.name, w.width}
	}
	return rows
}

// SetMaxStack lowers the VM's limit on the shared stack to n slots.
func (vm *VM) SetMaxStack(n int) { vm.maxStack = n }

// RunToTrap is Run without the unwinding: it returns how many frames and
// stack slots the VM held when run came back, with a trap or a result.
func (vm *VM) RunToTrap(args ...int64) (frames, slots int, err error) {
	for _, a := range args {
		vm.stack = append(vm.stack, IntV(a))
	}
	if err = vm.enter(vm.Prog.Entry, -1); err == nil {
		_, err = vm.run(0)
	}
	return len(vm.frames), len(vm.stack), err
}

// QuietCall reports what bound decides for the VM as it stands: whether a
// call may push its frame in run's registers.
func (vm *VM) QuietCall() bool {
	vm.bound()
	return vm.quietCall
}

// SlowCalls returns how many calls have gone through enter, and how many
// of them were counted there for a CallCounter.
func (vm *VM) SlowCalls() (calls, counted uint64) { return vm.slowCalls, vm.slowCounts }

// CounterRowBytes returns the size of the counters the VM holds for a
// CallCounter, over every method it has a summary of.
func (vm *VM) CounterRowBytes() (bytes int) {
	for _, s := range vm.spans {
		for _, r := range s.rows {
			if r != nil {
				bytes += 8 * len(r.n)
			}
		}
	}
	return bytes
}
