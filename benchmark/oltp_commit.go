package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	extdb "repro"
	"repro/internal/types"
)

// oltpCommit is the write-heavy, durable, fits-in-cache workload: short
// transfer transactions and point reads over B-tree indexed tables, each
// client on tables of its own so that contention is not what it measures.
type oltpCommit struct {
	seed     int64
	accounts int
	// Per client: the model balances and the number of acknowledged
	// transfers. Only the owning client touches its slot.
	balance [][]int64
	acked   []int
}

const (
	openingBalance = 1000
	acctPad        = 40 // bytes of filler per account row
)

func acctRow(id int) []extdb.Value {
	return []extdb.Value{extdb.Int(int64(id)), extdb.Int(openingBalance), extdb.Str(strings.Repeat("x", acctPad))}
}

// Encoded row sizes, for the user-bytes side of the amplification ratios.
var (
	acctRowBytes = int64(len(types.EncodeRow(nil, acctRow(0))))
	histRowBytes = int64(len(types.EncodeRow(nil, []extdb.Value{extdb.Int(0), extdb.Int(0), extdb.Int(0), extdb.Int(0)})))
)

// oltpSQL returns the statement texts over client id's tables.
func oltpSQL(id int) (read, debit, credit, hist string) {
	return fmt.Sprintf(`SELECT balance FROM acct_%d WHERE id = ?`, id),
		fmt.Sprintf(`UPDATE acct_%d SET balance = balance - ? WHERE id = ?`, id),
		fmt.Sprintf(`UPDATE acct_%d SET balance = balance + ? WHERE id = ?`, id),
		fmt.Sprintf(`INSERT INTO hist_%d VALUES (?, ?, ?, ?)`, id)
}

func newOLTPCommit(seed int64, scale float64) *oltpCommit {
	w := &oltpCommit{seed: seed, accounts: scaled(20000, scale), acked: make([]int, clientsPerRun)}
	for c := 0; c < clientsPerRun; c++ {
		b := make([]int64, w.accounts)
		for i := range b {
			b[i] = openingBalance
		}
		w.balance = append(w.balance, b)
	}
	return w
}

func (w *oltpCommit) options(path string) extdb.Options { return extdb.Options{Path: path} }
func (w *oltpCommit) install(db *extdb.DB) error        { return nil }

func (w *oltpCommit) setup(db *extdb.DB) (setupStats, error) {
	var st setupStats
	s := db.NewSession()
	for c := 0; c < clientsPerRun; c++ {
		for _, ddl := range []string{
			fmt.Sprintf(`CREATE TABLE acct_%d(id NUMBER, balance NUMBER, pad VARCHAR2)`, c),
			fmt.Sprintf(`CREATE TABLE hist_%d(seq NUMBER, src NUMBER, dst NUMBER, amount NUMBER)`, c),
		} {
			if _, err := s.Exec(ddl); err != nil {
				return st, err
			}
		}
		insert := fmt.Sprintf(`INSERT INTO acct_%d VALUES (?, ?, ?)`, c)
		err := loadRows(s, w.accounts, func(i int) (string, []extdb.Value) {
			return insert, acctRow(i)
		})
		if err != nil {
			return st, err
		}
		d, err := timedExec(s, fmt.Sprintf(`CREATE INDEX acct_%d_id ON acct_%d(id)`, c, c))
		if err != nil {
			return st, err
		}
		st.indexBuild += d
	}
	return st, nil
}

// oltpOp is one generated oltp_commit operation: a transfer transaction
// or a standalone point read of src.
type oltpOp struct {
	transfer bool
	src, dst int
	amount   int64
	sample   bool
}

func (o oltpOp) String() string {
	return fmt.Sprintf("transfer=%t %d->%d %d sample=%t", o.transfer, o.src, o.dst, o.amount, o.sample)
}

type oltpClient struct {
	w    *oltpCommit
	id   int
	c    conn
	rng  *rand.Rand
	zipf *rand.Zipf
	// Statement texts over this client's tables.
	sqlRead, sqlDebit, sqlCredit, sqlHist string
}

// gen draws from the mix: one transfer to three point reads, Zipf-skewed
// account ids. A transfer takes several hundred times as long as a read,
// so the transfers still take nearly all of the time; the read share
// only sets how many read samples the window yields for its percentiles.
func (oc *oltpClient) gen() oltpOp {
	op := oltpOp{transfer: oc.rng.Intn(4) == 0, src: int(oc.zipf.Uint64())}
	op.dst = int(oc.zipf.Uint64())
	if op.dst == op.src {
		op.dst = (op.src + 1) % oc.w.accounts
	}
	op.amount = 1 + oc.rng.Int63n(9)
	op.sample = oc.rng.Intn(sampleEvery) == 0
	return op
}

func (w *oltpCommit) newClient(db *extdb.DB, id int) *oltpClient {
	rng := clientRNG(w.seed, id)
	oc := &oltpClient{w: w, id: id, rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(w.accounts-1))}
	oc.sqlRead, oc.sqlDebit, oc.sqlCredit, oc.sqlHist = oltpSQL(id)
	if db != nil {
		oc.c = conn{s: db.NewSession()}
	}
	return oc
}

func (w *oltpCommit) clients(db *extdb.DB) []client {
	var out []client
	for i := 0; i < clientsPerRun; i++ {
		out = append(out, w.newClient(db, i))
	}
	return out
}

// writers is nil: the window has its own transactions.
func (w *oltpCommit) writers(db *extdb.DB) []client { return nil }

func (oc *oltpClient) step(seq int, tr *clientTrace) opResult {
	op := oc.gen()
	bal := oc.w.balance[oc.id]
	if !op.transfer {
		res := opResult{kind: kPointRead}
		oc.c.startOp(seq, tr, kPointRead)
		start := time.Now()
		rs, err := oc.c.query(oc.sqlRead, extdb.Int(int64(op.src)))
		res.lat = time.Since(start)
		oc.c.endOp()
		if err != nil {
			res.err = err
			return res
		}
		res.checkFail = checkBalance(rs, op, bal[op.src])
		return res
	}

	res := opResult{kind: kTxn, userBytes: 2*acctRowBytes + histRowBytes}
	var read *extdb.ResultSet
	var touched [2]int64
	oc.c.startOp(seq, tr, kTxn)
	start := time.Now()
	res.retries, res.err = withRetry(func() error {
		if err := oc.c.begin(); err != nil {
			return err
		}
		err := func() (err error) {
			if read, err = oc.c.query(oc.sqlRead, extdb.Int(int64(op.src))); err != nil {
				return err
			}
			r, err := oc.c.exec(oc.sqlDebit, extdb.Int(op.amount), extdb.Int(int64(op.src)))
			if err != nil {
				return err
			}
			touched[0] = r.RowsAffected
			if r, err = oc.c.exec(oc.sqlCredit, extdb.Int(op.amount), extdb.Int(int64(op.dst))); err != nil {
				return err
			}
			touched[1] = r.RowsAffected
			_, err = oc.c.exec(oc.sqlHist, extdb.Int(int64(oc.w.acked[oc.id])), extdb.Int(int64(op.src)), extdb.Int(int64(op.dst)), extdb.Int(op.amount))
			return err
		}()
		if err != nil {
			_ = oc.c.s.Rollback() // the statement error is the one to report
			return err
		}
		return oc.c.commit()
	})
	res.lat = time.Since(start)
	oc.c.endOp()
	if res.err != nil {
		return res
	}
	res.checkFail = checkBalance(read, op, bal[op.src])
	if res.checkFail == "" && touched != [2]int64{1, 1} {
		res.checkFail = fmt.Sprintf("updates touched %v rows, want 1 each", touched)
	}
	// The commit was acknowledged: the model moves.
	bal[op.src] -= op.amount
	bal[op.dst] += op.amount
	oc.w.acked[oc.id]++
	return res
}

// checkBalance checks a point read: one row always, its value on
// sampled operations.
func checkBalance(rs *extdb.ResultSet, op oltpOp, want int64) string {
	if len(rs.Rows) != 1 {
		return fmt.Sprintf("account %d: %d rows, want 1", op.src, len(rs.Rows))
	}
	if got := rs.Rows[0][0].Int64(); op.sample && got != want {
		return fmt.Sprintf("account %d: balance %d, model says %d", op.src, got, want)
	}
	return ""
}

// verify checks the balance-sum invariant, the history row count and
// every account balance against the model.
func (w *oltpCommit) verify(db *extdb.DB) error {
	s := db.NewSession()
	for c := 0; c < clientsPerRun; c++ {
		rs, err := s.Query(fmt.Sprintf(`SELECT SUM(balance) FROM acct_%d`, c))
		if err != nil {
			return err
		}
		if got, want := rs.Rows[0][0].Int64(), int64(w.accounts)*openingBalance; got != want {
			return fmt.Errorf("acct_%d: balances sum to %d, invariant is %d", c, got, want)
		}
		if rs, err = s.Query(fmt.Sprintf(`SELECT COUNT(*) FROM hist_%d`, c)); err != nil {
			return err
		}
		if got := int(rs.Rows[0][0].Int64()); got != w.acked[c] {
			return fmt.Errorf("hist_%d: %d rows, %d transfers were acknowledged", c, got, w.acked[c])
		}
		if rs, err = s.Query(fmt.Sprintf(`SELECT id, balance FROM acct_%d`, c)); err != nil {
			return err
		}
		if len(rs.Rows) != w.accounts {
			return fmt.Errorf("acct_%d: %d rows, want %d", c, len(rs.Rows), w.accounts)
		}
		for _, row := range rs.Rows {
			if id := row[0].Int64(); row[1].Int64() != w.balance[c][id] {
				return fmt.Errorf("acct_%d: account %d holds %d, model says %d", c, id, row[1].Int64(), w.balance[c][id])
			}
		}
	}
	return nil
}

func (w *oltpCommit) guard(c counters) []string {
	var v []string
	if c.walSyncs == 0 || c.walBytes == 0 {
		v = append(v, "storage.wal idle: no fsync in the window")
	}
	if c.commits == 0 {
		v = append(v, "txn idle: no commit in the window")
	}
	if n := c.odciCalls(allCallbacks...); n != 0 {
		v = append(v, fmt.Sprintf("extidx did work on a workload without domain indexes: %d ODCI callbacks", n))
	}
	if c.misses != 0 {
		v = append(v, fmt.Sprintf("working set left the cache: %d misses", c.misses))
	}
	return v
}

func (w *oltpCommit) liveBytes() int64 {
	n := int64(clientsPerRun*w.accounts) * acctRowBytes
	for _, a := range w.acked {
		n += int64(a) * histRowBytes
	}
	return n
}

func (w *oltpCommit) statements() []string {
	read, debit, credit, hist := oltpSQL(0)
	return []string{read, debit, credit, hist}
}

func (w *oltpCommit) probeRows() (keys, rows [][]byte) {
	for i := 0; i < w.accounts; i++ {
		keys = append(keys, types.EncodeKey(nil, types.Int(int64(i))))
		rows = append(rows, types.EncodeRow(nil, acctRow(i)))
	}
	return keys, rows
}
