// Package exec implements the engine's batch-first executor: row
// schemas, a compiling expression evaluator, and the chunk-at-a-time
// operators the planner assembles — table scans, filters, projections,
// sorts, joins, RID lookups, and the pipelined domain-index scan that
// drives a cartridge's ODCIIndexStart/Fetch/Close routines as a row
// source. Operators exchange bounded Chunks of rows rather than single
// tuples, so an ODCI Fetch batch flows through the plan tree intact.
package exec

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Row is one tuple flowing through the executor.
type Row = []types.Value

// SchemaCol names one column of an iterator's output, optionally
// qualified by the table alias it came from.
type SchemaCol struct {
	Qualifier string // table name or alias, may be ""
	Name      string
}

// Schema describes the columns of rows produced by an iterator.
type Schema struct {
	Cols []SchemaCol
}

// RowIDColumn is the name of the pseudo-column carrying a row's RID.
// Table scans append it to every row, like Oracle's ROWID.
const RowIDColumn = "ROWID"

// Resolve returns the position of the (possibly qualified) column name.
// Unqualified names must be unambiguous across qualifiers.
func (s *Schema) Resolve(qualifier, name string) (int, error) {
	found := -1
	for i, c := range s.Cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if qualifier != "" && !strings.EqualFold(c.Qualifier, qualifier) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("exec: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		if qualifier != "" {
			return 0, fmt.Errorf("exec: unknown column %s.%s", qualifier, name)
		}
		return 0, fmt.Errorf("exec: unknown column %q", name)
	}
	return found, nil
}

// Concat merges two schemas (for joins).
func Concat(a, b *Schema) *Schema {
	out := &Schema{Cols: make([]SchemaCol, 0, len(a.Cols)+len(b.Cols))}
	out.Cols = append(out.Cols, a.Cols...)
	out.Cols = append(out.Cols, b.Cols...)
	return out
}

// Iterator is the batch executor interface. NextBatch resets c and
// fills it with the next run of rows; a chunk left empty signals end of
// stream, so producers must internally skip empty mid-stream batches.
// Close releases resources and is safe to call more than once.
type Iterator interface {
	NextBatch(c *Chunk) error
	Close() error
}
