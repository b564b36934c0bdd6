package engine

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/bitmapidx"
	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/extidx"
	"repro/internal/hashidx"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// execDDL executes one DDL statement. DDL is auto-committed: an open
// explicit transaction is committed first (Oracle's implicit commit). A
// top-level DDL runs in its own transaction, so everything a
// domain-index definition routine does through callback sessions (which
// share the invoking transaction) commits or rolls back with the
// statement, and so does the rewritten dictionary chain. Callback-session
// DDL joins the invoking statement's transaction instead (index
// definition routines have no restrictions, §2.5).
func (s *Session) execDDL(st sql.Statement) error {
	if s.explicit && !s.isCallback {
		if err := s.Commit(); err != nil {
			return fmt.Errorf("engine: implicit commit before DDL: %w", err)
		}
	}
	if s.isCallback {
		return s.dispatchDDL(st)
	}
	// DDL admits exclusively: it changes the catalog every other
	// statement plans against, and it rewrites the dictionary chain from
	// the whole catalog. Admission comes before any table lock (the
	// implicit commit above released any admission this session's
	// explicit transaction held). The dispatch — catalog pages, whole
	// index builds through callback sessions sharing t — and the chain
	// write run inside the mutation window, and so does a rollback; the
	// commit runs after it exits, so its fsync never blocks the window.
	db := s.db
	db.admitAcquire(true)
	defer db.admitRelease(true)
	t := db.txns.Begin()
	s.tx, s.explicit = t, true
	exit := db.enterMutation(t.ID, false)
	err := s.dispatchDDL(st)
	s.tx, s.explicit = nil, false
	if err == nil {
		if err = db.writeSnapshotChain(); err != nil {
			// The catalog already holds the change and rollback cannot
			// take it out again: refuse further commits, so the next
			// Open recovers the dictionary as of the last commit.
			db.walMu.Lock()
			err = db.failWAL(fmt.Errorf("engine: write dictionary: %w", err))
			db.walMu.Unlock()
		}
	}
	if err != nil {
		rbErr := t.Rollback()
		exit()
		if rbErr != nil {
			return fmt.Errorf("%w (DDL rollback also failed: %v)", err, rbErr)
		}
		return err
	}
	exit()
	db.flight.Record(obs.EvDDL, t.ID, 0, ddlTag(st))
	return t.Commit()
}

// ddlTag names a DDL statement kind for the flight recorder, e.g.
// "CreateIndex" from *sql.CreateIndex.
func ddlTag(st sql.Statement) string {
	name := fmt.Sprintf("%T", st)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

func (s *Session) dispatchDDL(st sql.Statement) error {
	switch x := st.(type) {
	case *sql.CreateTable:
		return s.createTable(x)
	case *sql.DropTable:
		return s.dropTable(x)
	case *sql.TruncateTable:
		return s.truncateTable(x)
	case *sql.CreateIndex:
		return s.createIndex(x)
	case *sql.DropIndex:
		return s.dropIndex(x)
	case *sql.AlterIndex:
		return s.alterIndex(x)
	case *sql.CreateOperator:
		return s.createOperator(x)
	case *sql.DropOperator:
		return fmtErr("DROP OPERATOR", s.db.cat.DropOperator(x.Name))
	case *sql.CreateIndexType:
		return s.createIndexType(x)
	case *sql.DropIndexType:
		return fmtErr("DROP INDEXTYPE", s.db.cat.DropIndexType(x.Name))
	case *sql.CreateType:
		return s.createType(x)
	case *sql.AnalyzeTable:
		return s.analyzeTable(x)
	default:
		return fmt.Errorf("engine: unsupported statement %T", st)
	}
}

// analyzeTable refreshes optimizer statistics: the table's row count,
// each built-in index's distinct-key count and numeric range, and — via
// the ODCIStatsCollect analogue — whatever statistics each domain index's
// indextype maintains.
func (s *Session) analyzeTable(x *sql.AnalyzeTable) error {
	unlock := s.lockTables([]string{x.Name}, nil)
	defer unlock()
	tbl, ok := s.db.cat.Table(x.Name)
	if !ok {
		return fmt.Errorf("engine: table %s does not exist", x.Name)
	}
	idxs := s.db.cat.TableIndexes(tbl.Name)
	distinct := make([]map[string]struct{}, len(idxs))
	for i := range distinct {
		distinct[i] = make(map[string]struct{})
	}
	rows := 0
	err := tbl.Heap.Scan(func(_ storage.RID, img []byte) (bool, error) {
		row, _, err := types.DecodeRow(img)
		if err != nil {
			return false, err
		}
		rows++
		for i, ix := range idxs {
			if ix.Kind == catalog.DomainIndex {
				continue
			}
			v := row[ix.ColPos]
			distinct[i][string(types.EncodeKey(nil, v))] = struct{}{}
			ix.ObserveValue(v)
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	tbl.RowCount = rows
	for i, ix := range idxs {
		if ix.Kind == catalog.DomainIndex {
			it, ok := s.db.cat.IndexType(ix.IndexType)
			if !ok || it.StatsName == "" {
				continue
			}
			sm, ok := s.db.reg.Stats(it.StatsName)
			if !ok {
				continue
			}
			if collector, ok := sm.(extidx.StatsCollector); ok {
				if err := collector.Collect(s.server(extidx.ModeScan, ix.Table), infoFor(ix, tbl)); err != nil {
					return fmt.Errorf("ODCIStatsCollect(%s): %w", ix.Name, err)
				}
			}
			continue
		}
		ix.DistinctKeys = len(distinct[i])
	}
	return nil
}

func (s *Session) createTable(x *sql.CreateTable) error {
	cols := make([]catalog.Column, len(x.Cols))
	for i, cd := range x.Cols {
		kind, tn, err := s.db.resolveKind(cd.TypeName)
		if err != nil {
			return fmt.Errorf("CREATE TABLE %s: column %s: %w", x.Name, cd.Name, err)
		}
		cols[i] = catalog.Column{Name: cd.Name, Kind: kind, TypeName: tn}
	}
	heap, err := storage.CreateHeap(s.db.pager)
	if err != nil {
		return err
	}
	t := &catalog.Table{Name: x.Name, Cols: cols, Heap: heap, Hidden: s.isCallback}
	if err := s.db.cat.AddTable(t); err != nil {
		heap.Drop()
		return err
	}
	// A table an index definition routine creates must go when the
	// statement that called it fails, or a retry finds it in the way.
	if s.tx != nil && s.tx.State() == txn.Active {
		s.tx.Record(txn.UndoFunc(func() error {
			heap.Drop()
			_, _, err := s.db.cat.DropTable(t.Name)
			return err
		}))
	}
	return nil
}

func (s *Session) dropTable(x *sql.DropTable) error {
	unlock := s.lockTables(nil, []string{x.Name})
	defer unlock()
	// Drop domain indexes first so their Drop routines can still query the
	// catalog state they expect.
	for _, ix := range s.db.cat.TableIndexes(x.Name) {
		if err := s.teardownIndex(ix); err != nil {
			return err
		}
		if _, err := s.db.cat.DropIndex(ix.Name); err != nil {
			return err
		}
	}
	t, _, err := s.db.cat.DropTable(x.Name)
	if err != nil {
		return err
	}
	t.Heap.Drop()
	return nil
}

func (s *Session) truncateTable(x *sql.TruncateTable) error {
	unlock := s.lockTables(nil, []string{x.Name})
	defer unlock()
	t, ok := s.db.cat.Table(x.Name)
	if !ok {
		return fmt.Errorf("engine: table %s does not exist", x.Name)
	}
	if err := t.Heap.Truncate(); err != nil {
		return err
	}
	t.RowCount = 0
	for _, ix := range s.db.cat.TableIndexes(x.Name) {
		switch ix.Kind {
		case catalog.BTreeIndex:
			nt, err := btree.Create(s.db.pager)
			if err != nil {
				return err
			}
			ix.BT = nt
		case catalog.HashIndex:
			if err := ix.HX.Truncate(); err != nil {
				return err
			}
		case catalog.BitmapIndex:
			ix.BM = bitmapidx.NewIndex()
		case catalog.DomainIndex:
			// "When the corresponding table is truncated, the truncate
			// method specified as part of the indextype is invoked."
			m, _, err := s.indexMethodsFor(ix)
			if err != nil {
				return err
			}
			if err := m.Truncate(s.server(extidx.ModeDefinition, ix.Table), infoFor(ix, t)); err != nil {
				return fmt.Errorf("ODCIIndexTruncate(%s): %w", ix.Name, err)
			}
		}
	}
	return nil
}

func (s *Session) createIndex(x *sql.CreateIndex) error {
	unlock := s.lockTables(nil, []string{x.Table})
	defer unlock()
	t, ok := s.db.cat.Table(x.Table)
	if !ok {
		return fmt.Errorf("engine: table %s does not exist", x.Table)
	}
	pos := t.ColIndex(x.Column)
	if pos < 0 {
		return fmt.Errorf("engine: column %s does not exist in %s", x.Column, x.Table)
	}
	ix := &catalog.Index{
		Name:   x.Name,
		Table:  x.Table,
		Column: x.Column,
		ColPos: pos,
		Unique: x.Unique,
	}
	switch x.Kind {
	case sql.IndexBTree:
		ix.Kind = catalog.BTreeIndex
		bt, err := btree.Create(s.db.pager)
		if err != nil {
			return err
		}
		ix.BT = bt
	case sql.IndexHash:
		ix.Kind = catalog.HashIndex
		hx, err := hashidx.Create(s.db.pager, 0)
		if err != nil {
			return err
		}
		ix.HX = hx
	case sql.IndexBitmap:
		ix.Kind = catalog.BitmapIndex
		ix.BM = bitmapidx.NewIndex()
	case sql.IndexDomain:
		ix.Kind = catalog.DomainIndex
		it, ok := s.db.cat.IndexType(x.IndexType)
		if !ok {
			return fmt.Errorf("engine: indextype %s does not exist", x.IndexType)
		}
		ix.IndexType = it.Name
		ix.Params = x.Params
	}
	if err := s.db.cat.AddIndex(ix); err != nil {
		return err
	}
	// Build the index contents.
	if ix.Kind == catalog.DomainIndex {
		// "Oracle server invokes the routine corresponding to the create
		// index method in the indextype" — the routine itself populates
		// its index data tables, typically by querying the base table
		// through callbacks.
		m, _, err := s.indexMethodsFor(ix)
		if err != nil {
			_, derr := s.db.cat.DropIndex(ix.Name)
			return errors.Join(err, derr)
		}
		if err := m.Create(s.server(extidx.ModeDefinition, ix.Table), infoFor(ix, t)); err != nil {
			_, derr := s.db.cat.DropIndex(ix.Name)
			return errors.Join(fmt.Errorf("ODCIIndexCreate(%s): %w", ix.Name, err), derr)
		}
		return nil
	}
	// Built-in index backfill from the base table, gathering the
	// distinct-key statistic the optimizer uses for selectivity.
	distinct, err := s.backfillIndex(ix, t)
	if err != nil {
		_, derr := s.db.cat.DropIndex(ix.Name)
		return errors.Join(err, derr, s.teardownIndex(ix))
	}
	ix.DistinctKeys = distinct
	return nil
}

// backfillIndex loads a built-in index from every row of its table and
// returns the number of distinct keys seen. CREATE INDEX builds with it,
// and Open rebuilds bitmap indexes with it: the dictionary does not
// store their contents, and their positions are RIDs, so the rebuilt
// index is identical.
func (s *Session) backfillIndex(ix *catalog.Index, t *catalog.Table) (int, error) {
	distinct := make(map[string]struct{})
	err := t.Heap.Scan(func(rid storage.RID, img []byte) (bool, error) {
		row, _, err := types.DecodeRow(img)
		if err != nil {
			return false, err
		}
		distinct[string(types.EncodeKey(nil, row[ix.ColPos]))] = struct{}{}
		if err := s.builtinIndexInsert(ix, row[ix.ColPos], rid, nil); err != nil {
			return false, err
		}
		return true, nil
	})
	return len(distinct), err
}

func (s *Session) dropIndex(x *sql.DropIndex) error {
	ix, ok := s.db.cat.Index(x.Name)
	if !ok {
		return fmt.Errorf("engine: index %s does not exist", x.Name)
	}
	unlock := s.lockTables(nil, []string{ix.Table})
	defer unlock()
	if err := s.teardownIndex(ix); err != nil {
		return err
	}
	_, err := s.db.cat.DropIndex(x.Name)
	return err
}

// teardownIndex releases index storage; for domain indexes it invokes
// ODCIIndexDrop.
func (s *Session) teardownIndex(ix *catalog.Index) error {
	switch ix.Kind {
	case catalog.DomainIndex:
		t, ok := s.db.cat.Table(ix.Table)
		if !ok {
			return fmt.Errorf("engine: table %s of index %s missing", ix.Table, ix.Name)
		}
		m, _, err := s.indexMethodsFor(ix)
		if err != nil {
			return err
		}
		if err := m.Drop(s.server(extidx.ModeDefinition, ix.Table), infoFor(ix, t)); err != nil {
			return fmt.Errorf("ODCIIndexDrop(%s): %w", ix.Name, err)
		}
	case catalog.HashIndex:
		ix.HX.Drop()
	case catalog.BTreeIndex:
		if err := ix.BT.Drop(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Session) alterIndex(x *sql.AlterIndex) error {
	ix, ok := s.db.cat.Index(x.Name)
	if !ok {
		return fmt.Errorf("engine: index %s does not exist", x.Name)
	}
	unlock := s.lockTables(nil, []string{ix.Table})
	defer unlock()
	t, _ := s.db.cat.Table(ix.Table)
	if ix.Kind != catalog.DomainIndex {
		if x.Rebuild {
			return nil // built-in rebuild is a no-op in this engine
		}
		return fmt.Errorf("engine: ALTER INDEX PARAMETERS applies to domain indexes")
	}
	m, _, err := s.indexMethodsFor(ix)
	if err != nil {
		return err
	}
	newParams := x.Params
	if x.Rebuild {
		newParams = ix.Params
	}
	if err := m.Alter(s.server(extidx.ModeDefinition, ix.Table), infoFor(ix, t), newParams); err != nil {
		return fmt.Errorf("ODCIIndexAlter(%s): %w", ix.Name, err)
	}
	ix.Params = newParams
	return nil
}

func (s *Session) createOperator(x *sql.CreateOperator) error {
	op := &catalog.Operator{Name: x.Name, AncillaryTo: x.AncillaryTo}
	for _, b := range x.Bindings {
		kinds := make([]types.Kind, len(b.ArgTypes))
		for i, tn := range b.ArgTypes {
			k, _, err := s.db.resolveKind(tn)
			if err != nil {
				return fmt.Errorf("CREATE OPERATOR %s: %w", x.Name, err)
			}
			kinds[i] = k
		}
		rk, _, err := s.db.resolveKind(b.ReturnType)
		if err != nil {
			return fmt.Errorf("CREATE OPERATOR %s: %w", x.Name, err)
		}
		if _, ok := s.db.reg.Function(b.FuncName); !ok {
			return fmt.Errorf("CREATE OPERATOR %s: functional implementation %s is not registered", x.Name, b.FuncName)
		}
		op.Bindings = append(op.Bindings, catalog.Binding{ArgKinds: kinds, ReturnKind: rk, FuncName: b.FuncName})
	}
	return s.db.cat.AddOperator(op)
}

func (s *Session) createIndexType(x *sql.CreateIndexType) error {
	it := &catalog.IndexType{Name: x.Name, MethodsName: x.Using, StatsName: x.StatsBy}
	for _, sig := range x.For {
		kinds := make([]types.Kind, len(sig.ArgTypes))
		for i, tn := range sig.ArgTypes {
			k, _, err := s.db.resolveKind(tn)
			if err != nil {
				return fmt.Errorf("CREATE INDEXTYPE %s: %w", x.Name, err)
			}
			kinds[i] = k
		}
		it.Ops = append(it.Ops, catalog.OpSig{Name: sig.Name, ArgKinds: kinds})
	}
	if _, ok := s.db.reg.Methods(x.Using); !ok {
		return fmt.Errorf("CREATE INDEXTYPE %s: index methods %s are not registered", x.Name, x.Using)
	}
	if x.StatsBy != "" {
		if _, ok := s.db.reg.Stats(x.StatsBy); !ok {
			return fmt.Errorf("CREATE INDEXTYPE %s: stats methods %s are not registered", x.Name, x.StatsBy)
		}
	}
	return s.db.cat.AddIndexType(it)
}

func (s *Session) createType(x *sql.CreateType) error {
	td := &types.TypeDesc{Name: x.Name}
	for _, a := range x.Attrs {
		k, _, err := s.db.resolveKind(a.TypeName)
		if err != nil {
			return fmt.Errorf("CREATE TYPE %s: %w", x.Name, err)
		}
		td.AttrNames = append(td.AttrNames, a.Name)
		td.AttrKinds = append(td.AttrKinds, k)
	}
	return s.db.cat.AddTypeDesc(td)
}
