package solver

// Test systems and the factor's oracle, shared with the external test
// package.
var (
	Laplacian3D        = laplacian3D
	RandomRHS          = randomRHS
	FactorsMatchOracle = factorsMatchOracle
	PointILU0          = newPointILU0
)

// The stopping rule's constants, which the dense oracle restates.
const (
	StepDelay     = stepDelay
	ResidualFloor = residualFloor
)
