package solver

// Test systems shared with the external test package.
var (
	Laplacian3D = laplacian3D
	RandomRHS   = randomRHS
)
