// Package colls implements the collection-column indexing example of
// §3.1: a CollContains(VARRAY, elem) operator over VARRAY columns —
// "Contains(Hobbies, 'Skiing')" — with both a functional implementation
// and an indextype that stores (element, rid) pairs in an engine table.
// Built-in indexing schemes cannot index collection columns at all; this
// cartridge is the framework's answer.
package colls

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/extidx"
	"repro/internal/types"
)

// Methods implements extidx.IndexMethods for CollIndexType.
type Methods struct{}

func dt(info extidx.IndexInfo) string { return info.DataTableName("E") }

// Create implements ODCIIndexCreate.
func (m Methods) Create(s extidx.Server, info extidx.IndexInfo) error {
	if err := extidx.NoParams(IndexTypeName, info.Params); err != nil {
		return err
	}
	if _, err := s.Exec(fmt.Sprintf(`CREATE TABLE %s(elem VARCHAR2, rid NUMBER)`, dt(info))); err != nil {
		return err
	}
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX %s$EL ON %s(elem)`, dt(info), dt(info))); err != nil {
		return err
	}
	rows, err := s.Query(fmt.Sprintf(`SELECT %s, ROWID FROM %s`, info.ColumnName, info.TableName))
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := m.Insert(s, info, r[1].Int64(), r[0]); err != nil {
			return err
		}
	}
	return nil
}

// Alter implements ODCIIndexAlter: CollIndexType defines no parameters.
func (Methods) Alter(s extidx.Server, info extidx.IndexInfo, newParams string) error {
	return extidx.NoParams(IndexTypeName, newParams)
}

// Truncate implements ODCIIndexTruncate.
func (Methods) Truncate(s extidx.Server, info extidx.IndexInfo) error {
	_, err := s.Exec(fmt.Sprintf(`DELETE FROM %s`, dt(info)))
	return err
}

// Drop implements ODCIIndexDrop.
func (Methods) Drop(s extidx.Server, info extidx.IndexInfo) error {
	_, err := s.Exec(fmt.Sprintf(`DROP TABLE %s`, dt(info)))
	return err
}

// Insert implements ODCIIndexInsert: one index row per element.
func (Methods) Insert(s extidx.Server, info extidx.IndexInfo, rid int64, newVal types.Value) error {
	for _, e := range newVal.Elems() {
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (?, ?)`, dt(info)),
			types.Str(e.String()), types.Int(rid)); err != nil {
			return err
		}
	}
	return nil
}

// Delete implements ODCIIndexDelete.
func (Methods) Delete(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal types.Value) error {
	_, err := s.Exec(fmt.Sprintf(`DELETE FROM %s WHERE rid = ?`, dt(info)), types.Int(rid))
	return err
}

// Update implements ODCIIndexUpdate.
func (m Methods) Update(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal, newVal types.Value) error {
	if err := m.Delete(s, info, rid, oldVal); err != nil {
		return err
	}
	return m.Insert(s, info, rid, newVal)
}

type state struct {
	rids []int64
	pos  int
}

// Start implements ODCIIndexStart.
func (Methods) Start(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (extidx.ScanState, error) {
	if !call.WantsTrue() || len(call.Args) != 1 {
		return nil, fmt.Errorf("colls: CollContains takes (collection, element) compared to 1")
	}
	rows, err := s.Query(fmt.Sprintf(`SELECT rid FROM %s WHERE elem = ?`, dt(info)), call.Args[0])
	if err != nil {
		return nil, err
	}
	st := &state{}
	seen := map[int64]bool{}
	for _, r := range rows {
		rid := r[0].Int64()
		if !seen[rid] {
			seen[rid] = true
			st.rids = append(st.rids, rid)
		}
	}
	return extidx.StateValue{V: st}, nil
}

// Fetch implements ODCIIndexFetch.
func (Methods) Fetch(s extidx.Server, sst extidx.ScanState, maxRows int) (extidx.FetchResult, extidx.ScanState, error) {
	st := sst.(extidx.StateValue).V.(*state)
	n := len(st.rids) - st.pos
	if maxRows > 0 && maxRows < n {
		n = maxRows
	}
	res := extidx.FetchResult{RIDs: st.rids[st.pos : st.pos+n]}
	st.pos += n
	res.Done = st.pos >= len(st.rids)
	return res, sst, nil
}

// Close implements ODCIIndexClose.
func (Methods) Close(s extidx.Server, st extidx.ScanState) error { return nil }

// SQL object names.
const (
	OpContains    = "CollContains"
	IndexTypeName = "CollIndexType"
	MethodsName   = "CollIndexMethods"
	FuncContains  = "CollContainsFn"
)

// Register installs the cartridge implementations.
func Register(db *engine.DB) error {
	if err := db.Registry().RegisterMethods(MethodsName, Methods{}); err != nil {
		return err
	}
	return db.Registry().RegisterFunction(FuncContains, func(args []types.Value) (types.Value, error) {
		if len(args) < 2 || args[0].IsNull() {
			return types.Num(0), nil
		}
		for _, e := range args[0].Elems() {
			if e.String() == args[1].String() {
				return types.Num(1), nil
			}
		}
		return types.Num(0), nil
	})
}

// Setup issues the cartridge DDL.
func Setup(s *engine.Session) error {
	stmts := []string{
		fmt.Sprintf(`CREATE OPERATOR %s BINDING (VARRAY, VARCHAR2) RETURN NUMBER USING %s`, OpContains, FuncContains),
		fmt.Sprintf(`CREATE INDEXTYPE %s FOR %s(VARRAY, VARCHAR2) USING %s`, IndexTypeName, OpContains, MethodsName),
	}
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			return err
		}
	}
	return nil
}
