package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"systemr"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// oltp_mixed: two clients, prepared reads beside transfer transactions,
// account inserts and deletes, branch sums and full-table snapshot reads.
// It runs the same lifecycle, RSS, B-tree and storage code as the read
// workloads, but with writers beside the readers — version chains, the undo
// log, table X locks and vacuum — so a read-path gain that costs writers
// shows here.

const (
	omPoint    uint8 = iota // prepared: one account by key
	omRange                 // prepared: five accounts by key range
	omTransfer              // transaction: read, two updates, one history insert, commit
	omInsert                // autocommit insert of a zero-balance account
	omDelete                // autocommit delete of an account this client inserted
	omBranch                // prepared: SUM(BAL) of one branch
	omSnapshot              // prepared: COUNT(*), SUM(BAL) of the whole table
)

var omTexts = [...]string{
	omPoint:    "SELECT ID, BAL FROM ACCOUNTS WHERE ID = ?",
	omRange:    "SELECT ID, BAL FROM ACCOUNTS WHERE ID BETWEEN ? AND ?",
	omBranch:   "SELECT COUNT(*), SUM(BAL) FROM ACCOUNTS WHERE BRANCH = ?",
	omSnapshot: "SELECT COUNT(*), SUM(BAL) FROM ACCOUNTS",
}

const (
	omClients    = 2
	omPerBranch  = 100
	omStartBal   = 1000
	omRangeSpan  = 5
	omMaxRetries = 5
	omNewIDBase  = 1 << 30 // keys of inserted accounts: omNewIDBase·(client+1) + n
)

var omPad = strings.Repeat("x", 40)

type oltpMixed struct {
	accounts, branches int
	branch             []int32
	lists              [omClients][]op
	stmts              [len(omTexts)]*systemr.Stmt
	// Per client: keys inserted and not yet deleted, and the next key.
	live    [omClients][]int64
	nextNew [omClients]int64

	transfers, inserts, deletes atomic.Int64
	accountBytes, historyBytes  int64
}

func newOltpMixed(seed int64, accounts, roundOps int) *oltpMixed {
	w := &oltpMixed{accounts: accounts, branches: max(accounts/omPerBranch, 1)}
	rnd := rand.New(rand.NewSource(seed))
	w.branch = make([]int32, accounts)
	for i := range w.branch {
		w.branch[i] = int32(rnd.Intn(w.branches))
	}
	w.accountBytes = int64(len(storage.EncodeRow(w.accountRow(0, 0, 0))))
	w.historyBytes = int64(len(storage.EncodeRow(value.Row{value.NewInt(0), value.NewInt(0), value.NewInt(0)})))
	span := min(omRangeSpan, accounts)
	for c := range w.lists {
		// Each client has its own stream. Its sequence of operation kinds is
		// the same under every seed; the seed chooses the keys.
		rnd := rand.New(rand.NewSource(seed*omClients + int64(c) + 1))
		kinds := rand.New(rand.NewSource(int64(c)))
		list := make([]op, roundOps)
		inserted := 0
		for i := range list {
			o := &list[i]
			switch p := kinds.Intn(100); {
			case p < 40:
				k := int64(rnd.Intn(accounts))
				*o = op{kind: omPoint, args: []any{k}, rows: 1, sums: []int64{k}}
			case p < 50:
				lo := int64(rnd.Intn(accounts - span + 1))
				hi := lo + int64(span) - 1
				*o = op{kind: omRange, args: []any{lo, hi}, rows: span, sums: []int64{(lo + hi) * int64(span) / 2}}
			case p < 80:
				a := rnd.Intn(accounts)
				b := (a + 1 + rnd.Intn(accounts-1)) % accounts
				*o = op{kind: omTransfer, args: []any{int64(a), int64(b), int64(1 + rnd.Intn(100))}}
			case p < 90:
				// Inserts and deletes alternate, so the accounts a client
				// added stay few and every delete finds its row.
				if inserted%2 == 0 {
					*o = op{kind: omInsert, args: []any{int64(rnd.Intn(w.branches))}}
				} else {
					*o = op{kind: omDelete}
				}
				inserted++
			case p < 95:
				*o = op{kind: omBranch, args: []any{int64(rnd.Intn(w.branches))}, rows: 1}
			default:
				*o = op{kind: omSnapshot, args: []any{}, rows: 1}
			}
			o.text = omTexts[o.kind]
		}
		w.lists[c] = list
	}
	return w
}

func (w *oltpMixed) accountRow(id int64, branch int32, bal int64) value.Row {
	return value.Row{value.NewInt(id), value.NewInt(int64(branch)), value.NewInt(bal), value.NewString(omPad)}
}

func (w *oltpMixed) tables() []tableDef {
	return []tableDef{
		{
			name: "ACCOUNTS", cols: "ID INTEGER, BRANCH INTEGER, BAL INTEGER, PAD VARCHAR",
			indexes: []string{
				"CREATE UNIQUE INDEX ACCOUNTS_ID ON ACCOUNTS (ID)",
				"CREATE INDEX ACCOUNTS_BRANCH ON ACCOUNTS (BRANCH)",
			},
			n:   w.accounts,
			row: func(i int) value.Row { return w.accountRow(int64(i), w.branch[i], omStartBal) },
		},
		{
			name: "HISTORY", cols: "AID INTEGER, DELTA INTEGER, SEQ INTEGER",
			indexes: []string{"CREATE INDEX HISTORY_AID ON HISTORY (AID)"},
		},
	}
}

func (w *oltpMixed) prepare(db *systemr.DB) error {
	for k, text := range omTexts {
		if text == "" {
			continue
		}
		st, err := db.Prepare(text)
		if err != nil {
			return fmt.Errorf("prepare %q: %w", text, err)
		}
		w.stmts[k] = st
	}
	return nil
}

func (w *oltpMixed) ops(client, _ int) []op { return w.lists[client] }

func (w *oltpMixed) exec(c *client, o *op) {
	switch o.kind {
	case omPoint, omRange:
		c.run(w.stmts[o.kind], o)
	case omBranch, omSnapshot:
		// Transfers conserve the total and inserted accounts hold nothing,
		// so every snapshot must see the loaded sum; a branch sum can be
		// checked only for being one row.
		t := time.Now()
		res, err := w.stmts[o.kind].Run(o.args...)
		c.done(classPrepared, t, err)
		if err != nil {
			return
		}
		if len(res.Rows) != 1 {
			c.fail("%s: %d rows", o.text, len(res.Rows))
		} else if total := int64(w.accounts) * omStartBal; o.kind == omSnapshot && asInt(res.Rows[0][1]) != total {
			c.fail("snapshot read saw SUM(BAL) = %v, loaded %d", res.Rows[0][1], total)
		}
	case omTransfer:
		w.retry(c, func() error { return w.transfer(c, o) })
	case omInsert:
		id := omNewIDBase*int64(c.id+1) + w.nextNew[c.id]
		w.nextNew[c.id]++
		text := fmt.Sprintf("INSERT INTO ACCOUNTS VALUES (%d, %d, 0, '%s')", id, o.args[0], omPad)
		if w.retry(c, func() error { return w.dml(c, text) }) {
			w.live[c.id] = append(w.live[c.id], id)
			w.inserts.Add(1)
			c.userBytes += w.accountBytes
		}
	case omDelete:
		if len(w.live[c.id]) == 0 {
			return
		}
		id := w.live[c.id][0]
		w.live[c.id] = w.live[c.id][1:]
		if w.retry(c, func() error { return w.dml(c, fmt.Sprintf("DELETE FROM ACCOUNTS WHERE ID = %d", id)) }) {
			w.deletes.Add(1)
			c.userBytes -= w.accountBytes
		}
	}
}

// retry reruns f while it fails with a write conflict or as a deadlock
// victim, and reports whether it succeeded in the end; the sixth such failure
// in a row is a failed operation.
func (w *oltpMixed) retry(c *client, f func() error) bool {
	for attempt := 0; ; attempt++ {
		err := f()
		if err == nil {
			return true
		}
		if !retryable(err) {
			return false // already counted by done
		}
		if attempt == omMaxRetries {
			c.fail("gave up after %d retries: %v", omMaxRetries, err)
			return false
		}
		c.retries++
	}
}

// dml runs one autocommitted statement that must affect exactly one row.
func (w *oltpMixed) dml(c *client, text string) error {
	t := time.Now()
	res, err := c.db.Exec(text)
	c.done(classDML, t, err)
	if err == nil && res.Affected != 1 {
		c.fail("%s: affected %d rows", text, res.Affected)
	}
	return err
}

func (w *oltpMixed) transfer(c *client, o *op) error {
	from, to, amount := o.args[0].(int64), o.args[1].(int64), o.args[2].(int64)
	tx := c.db.Begin()
	step := func(class uint8, text string, rows, affected int) error {
		t := time.Now()
		res, err := tx.Exec(text)
		c.done(class, t, err)
		if err != nil {
			_ = tx.Rollback() // the engine already rolled back; this only acknowledges
			return err
		}
		if len(res.Rows) != rows || res.Affected != affected {
			c.fail("%s: %d rows, %d affected", text, len(res.Rows), res.Affected)
		}
		return nil
	}
	if err := step(classAdhoc, fmt.Sprintf("SELECT BAL FROM ACCOUNTS WHERE ID = %d", from), 1, 0); err != nil {
		return err
	}
	if err := step(classDML, fmt.Sprintf("UPDATE ACCOUNTS SET BAL = BAL - %d WHERE ID = %d", amount, from), 0, 1); err != nil {
		return err
	}
	if err := step(classDML, fmt.Sprintf("UPDATE ACCOUNTS SET BAL = BAL + %d WHERE ID = %d", amount, to), 0, 1); err != nil {
		return err
	}
	if err := step(classDML, fmt.Sprintf("INSERT INTO HISTORY VALUES (%d, %d, %d)", from, amount, w.transfers.Load()), 0, 1); err != nil {
		return err
	}
	t := time.Now()
	err := tx.Commit()
	c.done(classCommit, t, err)
	if err == nil {
		w.transfers.Add(1)
		c.userBytes += w.historyBytes
	}
	return err
}

// finish checks what the whole run must have conserved: the total balance,
// the account count, and one history row per committed transfer.
func (w *oltpMixed) finish(db *systemr.DB, _ []*client) error {
	res, err := db.Query("SELECT COUNT(*), SUM(BAL) FROM ACCOUNTS")
	if err != nil {
		return err
	}
	wantN := int64(w.accounts) + w.inserts.Load() - w.deletes.Load()
	if n, sum := asInt(res.Rows[0][0]), asInt(res.Rows[0][1]); n != wantN || sum != int64(w.accounts)*omStartBal {
		return fmt.Errorf("ACCOUNTS ends with %d rows summing to %d; want %d rows summing to %d",
			n, sum, wantN, int64(w.accounts)*omStartBal)
	}
	if res, err = db.Query("SELECT COUNT(*) FROM HISTORY"); err != nil {
		return err
	}
	if n := asInt(res.Rows[0][0]); n != w.transfers.Load() {
		return fmt.Errorf("HISTORY has %d rows after %d committed transfers", n, w.transfers.Load())
	}
	return nil
}

func (w *oltpMixed) sizes() map[string]int {
	return map[string]int{"ACCOUNTS": w.accounts, "branches": w.branches, "round_ops": len(w.lists[0])}
}
