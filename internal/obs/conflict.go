package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ConflictStats is the live aggregate of write-conflict aborts
// (ErrWriteConflict), broken down per table so W1-style runs show which
// tables carry the retry burden instead of the aborts hiding inside
// failed statements.
type ConflictStats struct {
	aborts Counter

	mu      sync.Mutex
	byTable map[string]int64 // normalized table name -> aborts; guarded by mu
}

// RecordAbort notes one transaction aborted by a write conflict on the
// given table ("" when unattributed).
func (c *ConflictStats) RecordAbort(table string) {
	c.aborts.Inc()
	if table == "" {
		return
	}
	c.mu.Lock()
	if c.byTable == nil {
		c.byTable = make(map[string]int64)
	}
	c.byTable[table]++
	c.mu.Unlock()
}

// Snapshot returns an inert copy.
func (c *ConflictStats) Snapshot() ConflictSnapshot {
	s := ConflictSnapshot{Aborts: c.aborts.Load()}
	c.mu.Lock()
	if len(c.byTable) > 0 {
		s.ByTable = make(map[string]int64, len(c.byTable))
		for k, v := range c.byTable {
			s.ByTable[k] = v
		}
	}
	c.mu.Unlock()
	return s
}

// ConflictSnapshot is an inert copy of ConflictStats.
type ConflictSnapshot struct {
	// Aborts counts transactions aborted by ErrWriteConflict.
	Aborts int64
	// ByTable breaks the aborts down by table name (absent when zero).
	ByTable map[string]int64
}

// String renders the snapshot as one line.
func (s ConflictSnapshot) String() string {
	if s.Aborts == 0 {
		return "aborts=0"
	}
	keys := make([]string, 0, len(s.ByTable))
	for k := range s.ByTable {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, s.ByTable[k]))
	}
	return fmt.Sprintf("aborts=%d by-table{%s}", s.Aborts, strings.Join(parts, " "))
}
