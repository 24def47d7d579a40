//go:build race

package vm_test

// raceLite trims TestSteppedEqualsCharged's matrix when the race
// detector is on: its slowdown over the interpreter is 10-20x, and the
// full breadth is covered by the run without it.
const raceLite = true
