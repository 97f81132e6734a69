package systemr

// Conn is the SQL-level session: the layer that gives BEGIN / COMMIT /
// ROLLBACK somewhere to live. DB-level Exec autocommits every statement, so
// transaction control through it would be meaningless; a Conn carries the
// one piece of session state — the current transaction — that those
// statements manipulate. The rsql shell runs on a Conn.

import (
	"context"
	"errors"
	"fmt"

	"systemr/internal/sql"
)

// Conn is a database session: a statement stream with at most one open
// transaction. Statements outside a transaction autocommit exactly as on DB;
// between BEGIN and COMMIT/ROLLBACK they execute on the open transaction. A
// Conn is a single session and must not be used from multiple goroutines
// concurrently; open one Conn per goroutine instead.
type Conn struct {
	db *DB
	tx *Txn
}

// Conn opens a session.
func (db *DB) Conn() *Conn { return &Conn{db: db} }

// Exec runs one statement on the session.
func (c *Conn) Exec(text string) (*Result, error) {
	return c.ExecContext(context.Background(), text)
}

// ExecContext is Exec observing ctx. BEGIN, COMMIT, and ROLLBACK are routed
// by the statement's leading keyword (ordinary statements are not parsed
// twice); everything else runs on the open transaction if there is one, else
// autocommits.
func (c *Conn) ExecContext(ctx context.Context, text string) (*Result, error) {
	switch kw := sql.LeadingKeyword(text); kw {
	case "BEGIN":
		if err := parseTxnControl(text); err != nil {
			return nil, err
		}
		if c.tx != nil {
			return nil, errors.New("systemr: a transaction is already in progress")
		}
		c.tx = c.db.Begin()
		return &Result{}, nil
	case "COMMIT", "ROLLBACK":
		if err := parseTxnControl(text); err != nil {
			return nil, err
		}
		if c.tx == nil {
			return nil, errors.New("systemr: no transaction in progress")
		}
		end := c.tx.Commit
		if kw == "ROLLBACK" {
			end = c.tx.Rollback
		}
		err := end()
		c.tx = nil
		if err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	if c.tx != nil {
		return c.tx.ExecContext(ctx, text)
	}
	return c.db.ExecContext(ctx, text)
}

// parseTxnControl validates the full text of a transaction-control statement
// (its leading keyword already identified it as one).
func parseTxnControl(text string) error {
	stmt, err := sql.Parse(text)
	if err != nil {
		return err
	}
	switch stmt.(type) {
	case *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt:
		return nil
	}
	return fmt.Errorf("systemr: unexpected statement %T", stmt)
}

// Query is Exec restricted to statements that return rows.
func (c *Conn) Query(text string) (*Result, error) {
	return c.QueryContext(context.Background(), text)
}

// QueryContext is Query observing ctx.
func (c *Conn) QueryContext(ctx context.Context, text string) (*Result, error) {
	res, err := c.ExecContext(ctx, text)
	return queryOnly(text, res, err)
}

// InTxn reports whether a transaction is open on the session.
func (c *Conn) InTxn() bool { return c.tx != nil }

// TxnAborted reports whether the session's open transaction was rolled back
// by the engine and awaits a ROLLBACK acknowledgment.
func (c *Conn) TxnAborted() bool { return c.tx != nil && c.tx.Aborted() }

// Close ends the session, rolling back any open transaction.
func (c *Conn) Close() error {
	if c.tx == nil {
		return nil
	}
	err := c.tx.Rollback()
	c.tx = nil
	return err
}
