package engine

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/extidx"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// btreeEntryKey builds the B-tree key for a secondary index entry: the
// order-preserving column key, suffixed with the RID for non-unique
// indexes so duplicates coexist.
func btreeEntryKey(ix *catalog.Index, v types.Value, rid storage.RID) []byte {
	key := types.EncodeKey(nil, v)
	if !ix.Unique {
		key = append(key, 0x00)
		key = append(key, types.EncodeKey(nil, types.Int(rid.Int64()))...)
	}
	return key
}

// builtinIndexInsert adds an entry to a built-in index, recording undo on
// t when non-nil.
func (s *Session) builtinIndexInsert(ix *catalog.Index, v types.Value, rid storage.RID, t *txn.Txn) error {
	ix.ObserveValue(v)
	switch ix.Kind {
	case catalog.BTreeIndex:
		key := btreeEntryKey(ix, v, rid)
		if ix.Unique {
			if _, exists, err := ix.BT.Get(key); err != nil {
				return err
			} else if exists {
				return fmt.Errorf("engine: unique constraint violated on index %s (value %s)", ix.Name, v)
			}
		}
		val := types.EncodeRow(nil, []types.Value{types.Int(rid.Int64())})
		if err := ix.BT.Set(key, val); err != nil {
			return err
		}
		if t != nil {
			bt := ix.BT
			k := append([]byte(nil), key...)
			t.Record(txn.UndoFunc(func() error {
				_, err := bt.Delete(k)
				return err
			}))
		}
	case catalog.HashIndex:
		key := types.EncodeKey(nil, v)
		val := types.EncodeRow(nil, []types.Value{types.Int(rid.Int64())})
		if err := ix.HX.Insert(key, val); err != nil {
			return err
		}
		if t != nil {
			hx := ix.HX
			k, vv := append([]byte(nil), key...), append([]byte(nil), val...)
			t.Record(txn.UndoFunc(func() error {
				_, err := hx.Delete(k, vv)
				return err
			}))
		}
	case catalog.BitmapIndex:
		key := types.EncodeKey(nil, v)
		ix.BM.Insert(key, uint64(rid.Int64()))
		if t != nil {
			bm := ix.BM
			k := append([]byte(nil), key...)
			pos := uint64(rid.Int64())
			t.Record(txn.UndoFunc(func() error {
				bm.Delete(k, pos)
				return nil
			}))
		}
	}
	return nil
}

// builtinIndexDelete removes an entry from a built-in index, recording
// undo on t when non-nil.
func (s *Session) builtinIndexDelete(ix *catalog.Index, v types.Value, rid storage.RID, t *txn.Txn) error {
	switch ix.Kind {
	case catalog.BTreeIndex:
		key := btreeEntryKey(ix, v, rid)
		if _, err := ix.BT.Delete(key); err != nil {
			return err
		}
		if t != nil {
			bt := ix.BT
			k := append([]byte(nil), key...)
			val := types.EncodeRow(nil, []types.Value{types.Int(rid.Int64())})
			t.Record(txn.UndoFunc(func() error { return bt.Set(k, val) }))
		}
	case catalog.HashIndex:
		key := types.EncodeKey(nil, v)
		val := types.EncodeRow(nil, []types.Value{types.Int(rid.Int64())})
		if _, err := ix.HX.Delete(key, val); err != nil {
			return err
		}
		if t != nil {
			hx := ix.HX
			k, vv := append([]byte(nil), key...), append([]byte(nil), val...)
			t.Record(txn.UndoFunc(func() error { return hx.Insert(k, vv) }))
		}
	case catalog.BitmapIndex:
		key := types.EncodeKey(nil, v)
		ix.BM.Delete(key, uint64(rid.Int64()))
		if t != nil {
			bm := ix.BM
			k := append([]byte(nil), key...)
			pos := uint64(rid.Int64())
			t.Record(txn.UndoFunc(func() error { bm.Insert(k, pos); return nil }))
		}
	}
	return nil
}

// validateValue checks a value against a column definition.
func (s *Session) validateValue(tbl *catalog.Table, col catalog.Column, v types.Value) error {
	if v.IsNull() {
		return nil
	}
	switch col.Kind {
	case types.KindObject:
		td, ok := s.db.cat.TypeDesc(col.TypeName)
		if !ok {
			return fmt.Errorf("engine: column %s has unknown type %s", col.Name, col.TypeName)
		}
		return td.Validate(v)
	case types.KindArray:
		if v.Kind() != types.KindArray {
			return fmt.Errorf("engine: column %s expects VARRAY, got %s", col.Name, v.Kind())
		}
	default:
		if v.Kind() != col.Kind {
			return fmt.Errorf("engine: column %s expects %s, got %s", col.Name, col.Kind, v.Kind())
		}
	}
	return nil
}

// maintainDomain calls fn once per domain index on tbl, handing it the
// index's methods and a maintenance-mode server; the INSERT, UPDATE and
// DELETE paths pass the ODCIIndexInsert/Update/Delete invocation as fn.
func (s *Session) maintainDomain(tbl *catalog.Table, fn func(m extidx.IndexMethods, srv extidx.Server, info extidx.IndexInfo, ix *catalog.Index) error) error {
	for _, ix := range s.db.cat.TableIndexes(tbl.Name) {
		if ix.Kind != catalog.DomainIndex {
			continue
		}
		m, _, err := s.indexMethodsFor(ix)
		if err != nil {
			return err
		}
		srv := s.server(extidx.ModeMaintenance, ix.Table)
		if err := fn(m, srv, infoFor(ix, tbl), ix); err != nil {
			return err
		}
	}
	return nil
}

func (s *Session) execInsert(x *sql.Insert, params []types.Value) (Result, error) {
	release := s.admitWrite()
	defer release()
	unlock := s.lockTables(nil, []string{x.Table})
	defer unlock()
	tbl, ok := s.db.cat.Table(x.Table)
	if !ok {
		return Result{}, fmt.Errorf("engine: table %s does not exist", x.Table)
	}
	// Column mapping.
	colPos := make([]int, 0, len(tbl.Cols))
	if len(x.Cols) == 0 {
		for i := range tbl.Cols {
			colPos = append(colPos, i)
		}
	} else {
		for _, cn := range x.Cols {
			p := tbl.ColIndex(cn)
			if p < 0 {
				return Result{}, fmt.Errorf("engine: column %s does not exist in %s", cn, x.Table)
			}
			colPos = append(colPos, p)
		}
	}
	t, finish := s.begin()
	var inserted int64
	err := s.runWrite(t, finish, tbl.Name, func() error {
		emptySchema := &exec.Schema{}
		for _, rowExprs := range x.Rows {
			if len(rowExprs) != len(colPos) {
				return fmt.Errorf("engine: INSERT has %d values for %d columns", len(rowExprs), len(colPos))
			}
			row := make([]types.Value, len(tbl.Cols))
			for i, e := range rowExprs {
				c, err := exec.Compile(e, emptySchema, s, params)
				if err != nil {
					return err
				}
				v, err := c(nil)
				if err != nil {
					return err
				}
				p := colPos[i]
				if err := s.validateValue(tbl, tbl.Cols[p], v); err != nil {
					return err
				}
				row[p] = v
			}
			if err := s.insertRow(tbl, row, t); err != nil {
				return err
			}
			inserted++
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: inserted}, nil
}

// InsertRow inserts one fully-formed row programmatically (bypassing SQL
// parsing, used for object/collection values that have no literal syntax)
// with the same validation and index maintenance as INSERT.
func (s *Session) InsertRow(table string, row []types.Value) error {
	release := s.admitWrite()
	defer release()
	unlock := s.lockTables(nil, []string{table})
	defer unlock()
	tbl, ok := s.db.cat.Table(table)
	if !ok {
		return fmt.Errorf("engine: table %s does not exist", table)
	}
	if len(row) != len(tbl.Cols) {
		return fmt.Errorf("engine: row has %d values for %d columns", len(row), len(tbl.Cols))
	}
	full := make([]types.Value, len(tbl.Cols))
	copy(full, row)
	for i := range full {
		if err := s.validateValue(tbl, tbl.Cols[i], full[i]); err != nil {
			return err
		}
	}
	t, finish := s.begin()
	return s.runWrite(t, finish, tbl.Name, func() error {
		return s.insertRow(tbl, full, t)
	})
}

// insertRow writes one row and maintains every index; it is also the
// entry point for programmatic inserts from the facade.
func (s *Session) insertRow(tbl *catalog.Table, row []types.Value, t *txn.Txn) error {
	img := types.EncodeRow(nil, row)
	rid, err := tbl.Heap.Insert(img)
	if err != nil {
		return err
	}
	heap := tbl.Heap
	t.Record(txn.UndoFunc(func() error {
		tbl.RowCount--
		return heap.Delete(rid)
	}))
	tbl.RowCount++
	for _, ix := range s.db.cat.TableIndexes(tbl.Name) {
		if ix.Kind == catalog.DomainIndex {
			continue
		}
		if err := s.builtinIndexInsert(ix, row[ix.ColPos], rid, t); err != nil {
			return err
		}
	}
	return s.maintainDomain(tbl, func(m extidx.IndexMethods, srv extidx.Server, info extidx.IndexInfo, ix *catalog.Index) error {
		if err := m.Insert(srv, info, rid.Int64(), row[ix.ColPos]); err != nil {
			return fmt.Errorf("ODCIIndexInsert(%s): %w", ix.Name, err)
		}
		return nil
	})
}

// dmlTargets finds the rows an UPDATE or DELETE on table acts on through
// the same access-path chooser a SELECT uses (choosePath over ROWID,
// B-tree, hash, bitmap, DOMAIN and FULL, residual conjuncts filtered
// above), always serially. The target rows, each carrying its ROWID
// last, are drained and the access closed before the statement mutates
// anything, so an index-driven UPDATE of the indexed column never meets
// its own writes (the Halloween problem).
func (s *Session) dmlTargets(table string, where sql.Expr, params []types.Value) (*tableBinding, []exec.Row, error) {
	tb, err := s.bindTable(sql.TableRef{Name: table})
	if err != nil {
		return nil, nil, err
	}
	it, _, err := s.buildTableAccess(tb, splitConjuncts(where), params)
	if err != nil {
		return nil, nil, err
	}
	targets, err := exec.Drain(it)
	return tb, targets, err
}

func (s *Session) execUpdate(x *sql.Update, params []types.Value) (Result, error) {
	release := s.admitWrite()
	defer release()
	unlock := s.lockTables(nil, []string{x.Table})
	defer unlock()
	tb, targets, err := s.dmlTargets(x.Table, x.Where, params)
	if err != nil {
		return Result{}, err
	}
	tbl := tb.tbl
	setPos := make([]int, len(x.Cols))
	touched := make(map[int]bool, len(x.Cols))
	for i, cn := range x.Cols {
		p := tbl.ColIndex(cn)
		if p < 0 {
			return Result{}, fmt.Errorf("engine: column %s does not exist in %s", cn, x.Table)
		}
		setPos[i] = p
		touched[p] = true
	}
	setExprs := make([]exec.Compiled, len(x.Exprs))
	for i, e := range x.Exprs {
		c, err := exec.Compile(e, tb.schema, s, params)
		if err != nil {
			return Result{}, err
		}
		setExprs[i] = c
	}

	t, finish := s.begin()
	var updated int64
	err = s.runWrite(t, finish, tbl.Name, func() error {
		for _, full := range targets {
			oldRow, rid := full[:len(full)-1], storage.RIDFromInt64(full[len(full)-1].Int64())
			newRow := append([]types.Value(nil), oldRow...)
			for j, ce := range setExprs {
				v, err := ce(full)
				if err != nil {
					return err
				}
				p := setPos[j]
				if err := s.validateValue(tbl, tbl.Cols[p], v); err != nil {
					return err
				}
				newRow[p] = v
			}
			// Maintain built-in indexes on touched columns.
			for _, ix := range s.db.cat.TableIndexes(tbl.Name) {
				if ix.Kind == catalog.DomainIndex || !touched[ix.ColPos] {
					continue
				}
				if types.Identical(oldRow[ix.ColPos], newRow[ix.ColPos]) {
					continue
				}
				if err := s.builtinIndexDelete(ix, oldRow[ix.ColPos], rid, t); err != nil {
					return err
				}
				if err := s.builtinIndexInsert(ix, newRow[ix.ColPos], rid, t); err != nil {
					return err
				}
			}
			// Write the new image (undo restores the old one).
			heap := tbl.Heap
			oldImg := types.EncodeRow(nil, oldRow)
			if err := heap.Update(rid, types.EncodeRow(nil, newRow)); err != nil {
				return err
			}
			t.Record(txn.UndoFunc(func() error { return heap.Update(rid, oldImg) }))
			// Domain index maintenance with old and new values.
			err := s.maintainDomain(tbl, func(m extidx.IndexMethods, srv extidx.Server, info extidx.IndexInfo, ix *catalog.Index) error {
				if !touched[ix.ColPos] {
					return nil
				}
				if err := m.Update(srv, info, rid.Int64(), oldRow[ix.ColPos], newRow[ix.ColPos]); err != nil {
					return fmt.Errorf("ODCIIndexUpdate(%s): %w", ix.Name, err)
				}
				return nil
			})
			if err != nil {
				return err
			}
			updated++
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: updated}, nil
}

func (s *Session) execDelete(x *sql.Delete, params []types.Value) (Result, error) {
	release := s.admitWrite()
	defer release()
	unlock := s.lockTables(nil, []string{x.Table})
	defer unlock()
	tb, targets, err := s.dmlTargets(x.Table, x.Where, params)
	if err != nil {
		return Result{}, err
	}
	tbl := tb.tbl
	t, finish := s.begin()
	var deleted int64
	err = s.runWrite(t, finish, tbl.Name, func() error {
		for _, full := range targets {
			oldRow, rid := full[:len(full)-1], storage.RIDFromInt64(full[len(full)-1].Int64())
			for _, ix := range s.db.cat.TableIndexes(tbl.Name) {
				if ix.Kind == catalog.DomainIndex {
					continue
				}
				if err := s.builtinIndexDelete(ix, oldRow[ix.ColPos], rid, t); err != nil {
					return err
				}
			}
			heap := tbl.Heap
			oldImg := types.EncodeRow(nil, oldRow)
			if err := heap.Delete(rid); err != nil {
				return err
			}
			t.Record(txn.UndoFunc(func() error {
				tbl.RowCount++
				return heap.InsertAt(rid, oldImg)
			}))
			tbl.RowCount--
			err := s.maintainDomain(tbl, func(m extidx.IndexMethods, srv extidx.Server, info extidx.IndexInfo, ix *catalog.Index) error {
				if err := m.Delete(srv, info, rid.Int64(), oldRow[ix.ColPos]); err != nil {
					return fmt.Errorf("ODCIIndexDelete(%s): %w", ix.Name, err)
				}
				return nil
			})
			if err != nil {
				return err
			}
			deleted++
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: deleted}, nil
}
