//go:build invariants

package exec

// invariantsEnabled compiles in the row-lifetime net: a producer
// overwrites a recycled row slab with a poison value before reusing it.
const invariantsEnabled = true
