package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	extdb "repro"
	"repro/internal/types"
)

// analyticScan is the larger-than-cache workload: full-scan aggregates
// and B-tree range scans over a table about six times the buffer pool.
type analyticScan struct {
	seed   int64
	region []int
	amount []int64
	// Oracle indexes over the generated rows.
	sortedAmounts []int64 // ascending
	suffixSum     []int64 // suffixSum[i] = sum of sortedAmounts[i:]
	regionCount   [analyticRegions]int64
	regionSum     [analyticRegions]int64
	cachePages    int
	bytes         int64
}

const (
	analyticRegions = 16
	maxAmount       = 10000
	orderPad        = 60 // filler bytes, for rows of about 100 bytes
	rangeKeys       = 500

	sqlAggregate = `SELECT COUNT(*), SUM(amount) FROM orders WHERE amount > ?`
	sqlGroupBy   = `SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region`
	sqlRange     = `SELECT id, amount FROM orders WHERE id BETWEEN ? AND ?`

	sqlOrderInsert = `INSERT INTO orders VALUES (?, ?, ?, ?)`
)

func orderRow(id, region int, amount int64) []extdb.Value {
	return []extdb.Value{extdb.Int(int64(id)), extdb.Int(int64(region)), extdb.Int(amount), extdb.Str(strings.Repeat("x", orderPad))}
}

func (w *analyticScan) row(i int) []extdb.Value { return orderRow(i, w.region[i], w.amount[i]) }

// add appends a row to the model, under the next id.
func (w *analyticScan) add(region int, amount int64) {
	w.region, w.amount = append(w.region, region), append(w.amount, amount)
	w.regionCount[region]++
	w.regionSum[region] += amount
	w.bytes += orderRowBytes
}

// reindex rebuilds the oracle's sorted view of the amounts.
func (w *analyticScan) reindex() {
	n := len(w.amount)
	w.sortedAmounts = append(w.sortedAmounts[:0], w.amount...)
	sort.Slice(w.sortedAmounts, func(a, b int) bool { return w.sortedAmounts[a] < w.sortedAmounts[b] })
	w.suffixSum = make([]int64, n+1)
	for i := n - 1; i >= 0; i-- {
		w.suffixSum[i] = w.suffixSum[i+1] + w.sortedAmounts[i]
	}
}

var orderRowBytes = int64(len(types.EncodeRow(nil, orderRow(0, 0, 0))))

func newAnalyticScan(seed int64, scale float64) *analyticScan {
	n := scaled(60000, scale)
	// The pool is a sixth of the table: about 80 rows of ~100 bytes fit
	// an 8 KiB page.
	w := &analyticScan{seed: seed, cachePages: n/80/6 + 3}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		w.add(rng.Intn(analyticRegions), rng.Int63n(maxAmount))
	}
	w.reindex()
	return w
}

func (w *analyticScan) options(path string) extdb.Options {
	return extdb.Options{Path: path, CacheSizePages: w.cachePages}
}

func (w *analyticScan) install(db *extdb.DB) error { return nil }

func (w *analyticScan) setup(db *extdb.DB) (setupStats, error) {
	var st setupStats
	s := db.NewSession()
	if _, err := s.Exec(`CREATE TABLE orders(id NUMBER, region NUMBER, amount NUMBER, pad VARCHAR2)`); err != nil {
		return st, err
	}
	err := loadRows(s, len(w.amount), func(i int) (string, []extdb.Value) {
		return sqlOrderInsert, w.row(i)
	})
	if err != nil {
		return st, err
	}
	st.indexBuild, err = timedExec(s, `CREATE INDEX orders_id ON orders(id)`)
	return st, err
}

// scanOp is one generated analytic_scan operation.
type scanOp struct {
	kind      opKind // kFullScan, kGroupBy, kRangeScan
	threshold int64  // kFullScan
	lo        int    // kRangeScan: ids lo..lo+rangeKeys-1
	sample    bool
}

// sql returns the operation's statement and bind values.
func (o scanOp) sql() (string, []extdb.Value) {
	switch o.kind {
	case kFullScan:
		return sqlAggregate, []extdb.Value{extdb.Int(o.threshold)}
	case kRangeScan:
		return sqlRange, []extdb.Value{extdb.Int(int64(o.lo)), extdb.Int(int64(o.lo + rangeKeys - 1))}
	}
	return sqlGroupBy, nil
}

func (o scanOp) String() string {
	return fmt.Sprintf("%s %d %d sample=%t", kindNames[o.kind], o.threshold, o.lo, o.sample)
}

// genScanOp draws from the mix: 12% filtered aggregate over a full scan,
// 8% GROUP BY region, 80% 500-key B-tree range scan. The two full-scan
// classes take fifty times as long as a range scan, so they are most of
// the time at a fifth of the operations; the split keeps the read median
// well inside the range scans and the 95th percentile well inside the
// full scans, not on a boundary between classes.
func (w *analyticScan) genScanOp(rng *rand.Rand) scanOp {
	op := scanOp{}
	switch r := rng.Intn(25); {
	case r < 3:
		op.kind, op.threshold = kFullScan, maxAmount/10+rng.Int63n(maxAmount*8/10)
	case r < 5:
		op.kind = kGroupBy
	default:
		op.kind = kRangeScan
		if span := len(w.amount) - rangeKeys; span > 0 {
			op.lo = rng.Intn(span)
		}
	}
	op.sample = rng.Intn(sampleEvery) == 0
	return op
}

type scanClient struct {
	w   *analyticScan
	c   conn
	rng *rand.Rand
}

func (w *analyticScan) clients(db *extdb.DB) []client {
	var out []client
	for i := 0; i < clientsPerRun; i++ {
		out = append(out, &scanClient{w: w, c: conn{s: db.NewSession()}, rng: clientRNG(w.seed, i)})
	}
	return out
}

// orderWriter is the write phase's client: transactions that append
// orderBatch orders each, under new ids, added to the model when the
// commit is acknowledged. A batch, not a row, so that the transaction is
// not all fsync; in 5 s the table grows to about two and a half times
// its size.
type orderWriter struct {
	w   *analyticScan
	c   conn
	rng *rand.Rand
}

const orderBatch = 20

func (w *analyticScan) writers(db *extdb.DB) []client {
	return []client{&orderWriter{w: w, c: conn{s: db.NewSession()}, rng: clientRNG(w.seed, clientsPerRun)}}
}

func (ow *orderWriter) step(seq int, tr *clientTrace) opResult {
	res := opResult{kind: kTxn, userBytes: orderBatch * orderRowBytes}
	first := len(ow.w.amount)
	var region [orderBatch]int
	var amount [orderBatch]int64
	for i := range region {
		region[i], amount[i] = ow.rng.Intn(analyticRegions), ow.rng.Int63n(maxAmount)
	}
	var affected int64
	ow.c.startOp(seq, tr, kTxn)
	start := time.Now()
	res.retries, res.err = withRetry(func() error {
		affected = 0
		if err := ow.c.begin(); err != nil {
			return err
		}
		for i := range region {
			r, err := ow.c.exec(sqlOrderInsert, orderRow(first+i, region[i], amount[i])...)
			if err != nil {
				_ = ow.c.s.Rollback() // the statement error is the one to report
				return err
			}
			affected += r.RowsAffected
		}
		return ow.c.commit()
	})
	res.lat = time.Since(start)
	ow.c.endOp()
	if res.err != nil {
		return res
	}
	for i := range region {
		ow.w.add(region[i], amount[i])
	}
	if affected != orderBatch {
		res.checkFail = fmt.Sprintf("batch from order %d touched %d rows, want %d", first, affected, orderBatch)
	}
	return res
}

func (sc *scanClient) step(seq int, tr *clientTrace) opResult {
	op := sc.w.genScanOp(sc.rng)
	res := opResult{kind: op.kind}
	text, args := op.sql()
	sc.c.startOp(seq, tr, op.kind)
	start := time.Now()
	rs, err := sc.c.query(text, args...)
	res.lat = time.Since(start)
	sc.c.endOp()
	if err != nil {
		res.err = err
		return res
	}
	res.checkFail = sc.w.check(op, rs)
	return res
}

// check compares a reply with the generator-computed answer: the row
// count always, the content on sampled operations. The aggregates are a
// single row, so their content is the check.
func (w *analyticScan) check(op scanOp, rs *extdb.ResultSet) string {
	switch op.kind {
	case kFullScan:
		i := sort.Search(len(w.sortedAmounts), func(i int) bool { return w.sortedAmounts[i] > op.threshold })
		wantN, wantSum := int64(len(w.sortedAmounts)-i), w.suffixSum[i]
		if len(rs.Rows) != 1 {
			return fmt.Sprintf("aggregate returned %d rows", len(rs.Rows))
		}
		if n, sum := rs.Rows[0][0].Int64(), rs.Rows[0][1].Int64(); n != wantN || sum != wantSum {
			return fmt.Sprintf("amount > %d: count %d sum %d, generator says %d and %d", op.threshold, n, sum, wantN, wantSum)
		}
	case kGroupBy:
		if len(rs.Rows) != analyticRegions {
			return fmt.Sprintf("GROUP BY returned %d groups, want %d", len(rs.Rows), analyticRegions)
		}
		if op.sample {
			for _, row := range rs.Rows {
				r := row[0].Int64()
				if r < 0 || r >= analyticRegions || row[1].Int64() != w.regionCount[r] || row[2].Int64() != w.regionSum[r] {
					return fmt.Sprintf("region %d: count %d sum %d differ from the generator", r, row[1].Int64(), row[2].Int64())
				}
			}
		}
	case kRangeScan:
		want := rangeKeys
		if want > len(w.amount) {
			want = len(w.amount)
		}
		if len(rs.Rows) != want {
			return fmt.Sprintf("range from %d returned %d rows, want %d", op.lo, len(rs.Rows), want)
		}
		if op.sample {
			seen := map[int64]bool{}
			for _, row := range rs.Rows {
				id := row[0].Int64()
				if id < int64(op.lo) || id >= int64(op.lo+rangeKeys) || seen[id] || row[1].Int64() != w.amount[id] {
					return fmt.Sprintf("range from %d: row id %d amount %d is wrong or repeated", op.lo, id, row[1].Int64())
				}
				seen[id] = true
			}
		}
	}
	return ""
}

func (w *analyticScan) verify(db *extdb.DB) error {
	w.reindex() // the write phase appended rows
	s := db.NewSession()
	ops := []scanOp{
		{kind: kFullScan, threshold: maxAmount / 2},
		{kind: kGroupBy, sample: true},
		{kind: kRangeScan, lo: 0, sample: true},
	}
	if n := len(w.amount) - rangeKeys; n > 0 {
		ops = append(ops, scanOp{kind: kRangeScan, lo: n, sample: true})
	}
	for _, op := range ops {
		text, args := op.sql()
		rs, err := s.Query(text, args...)
		if err != nil {
			return err
		}
		if msg := w.check(op, rs); msg != "" {
			return fmt.Errorf("%s", msg)
		}
	}
	return nil
}

func (w *analyticScan) guard(c counters) []string {
	var v []string
	if c.misses == 0 || c.evictions == 0 {
		v = append(v, fmt.Sprintf("storage.pager never missed: %d misses, %d evictions on the larger-than-cache workload", c.misses, c.evictions))
	}
	if c.walBytes != 0 || c.walSyncs != 0 {
		v = append(v, fmt.Sprintf("storage.wal did work on a read-only workload: %d bytes, %d fsyncs", c.walBytes, c.walSyncs))
	}
	if n := c.odciCalls(allCallbacks...); n != 0 {
		v = append(v, fmt.Sprintf("extidx did work on a workload without domain indexes: %d ODCI callbacks", n))
	}
	return v
}

func (w *analyticScan) liveBytes() int64 { return w.bytes }

func (w *analyticScan) statements() []string {
	return []string{sqlAggregate, sqlGroupBy, sqlRange, sqlOrderInsert}
}

func (w *analyticScan) probeRows() (keys, rows [][]byte) {
	for i := range w.amount {
		keys = append(keys, types.EncodeKey(nil, types.Int(int64(i))))
		rows = append(rows, types.EncodeRow(nil, w.row(i)))
	}
	return keys, rows
}
