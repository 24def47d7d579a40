//go:build !race

package vm_test

const raceLite = false
