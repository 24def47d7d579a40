package mj

// FuelLeft is the fuel a reference interpreter has not burnt yet: the
// pins read the exact number of units a run consumed from it.
func (in *RefInterp) FuelLeft() int64 { return in.fuel }

// MaxRefDepth is the reference interpreter's call-depth bound.
const MaxRefDepth = maxRefDepth
