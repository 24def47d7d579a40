package plan

import (
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

// The stability layer's constants, for tests that condition a graph as
// Compile does or pick a site retention holds.
const (
	Floor   = floorWeight
	Band    = gridBand
	HoldPct = holdPct
)

// CompileConditioned is Compile on a graph the caller has conditioned:
// Condition(g, 0, 0) compiles g as given, Condition(g, Floor, 0) without
// the grid.
func CompileConditioned(program string, pristine *bytecode.Program, cond *profile.DCG, params Params, prior *Plan) (*Plan, error) {
	return compileConditioned(program, pristine, pristine.Version(), cond, params, prior)
}
