//go:build !invariants

package exec

// invariantsEnabled is false in default builds: the checks behind it are
// dead code the compiler eliminates. Build with `-tags invariants` to
// turn them on.
const invariantsEnabled = false
