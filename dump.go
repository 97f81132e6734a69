package systemr

// SQL script export: DumpSQL writes a statement script that recreates the
// database's schema, indexes, and data on a fresh instance — persistence at
// the SQL level (the storage engine itself is an in-memory simulation; see
// DESIGN.md).

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"systemr/internal/compile"
	"systemr/internal/lock"
	"systemr/internal/value"
)

// DumpSQL writes CREATE TABLE / CREATE INDEX / INSERT / UPDATE STATISTICS
// statements reproducing the current database. System catalogs are skipped
// (they regenerate). Tables dump in name order; rows in physical order.
//
// The shared catalog lock holds DDL off while the schema is read, and the
// rows are read under a snapshot pinned once that lock is granted: the dump
// holds exactly the transactions committed by then, whatever writers run
// beside it. A failed lock acquisition (deadlock victim, Config.LockTimeout)
// is returned.
func (db *DB) DumpSQL(w io.Writer) error {
	held, err := db.locks.AcquireContext(context.Background(),
		[]lock.Request{{Table: compile.CatalogLock, Mode: lock.Shared}})
	if err != nil {
		return fmt.Errorf("systemr: dump: %w", err)
	}
	defer held.Release()
	reg := db.txns.Begin()
	defer db.txns.Finish(reg)
	tables := db.cat.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })

	bw := bufio.NewWriter(w)

	for _, t := range tables {
		if t.System {
			continue
		}
		cols := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = c.Name + " " + c.Type.String()
		}
		fmt.Fprintf(bw, "CREATE TABLE %s (%s);\n", t.Name, strings.Join(cols, ", "))
		for _, pid := range t.Segment.Pages() {
			page := db.disk.Page(pid)
			for s, n := uint16(0), page.SlotCount(); s < n; s++ {
				h, row, rel, ok, err := page.ReadVersioned(s)
				if err != nil {
					return fmt.Errorf("systemr: dumping %s: %w", t.Name, err)
				}
				if !ok || rel != t.ID || !reg.Snap.Visible(h) {
					continue
				}
				fmt.Fprintf(bw, "INSERT INTO %s VALUES (%s);\n", t.Name, sqlRow(row))
			}
		}
		for _, ix := range t.Indexes {
			kind := "INDEX"
			if ix.Clustered {
				kind = "CLUSTERED " + kind
			}
			if ix.Unique {
				kind = "UNIQUE " + kind
			}
			fmt.Fprintf(bw, "CREATE %s %s ON %s (%s);\n",
				kind, ix.Name, t.Name, strings.Join(ix.ColumnNames(), ", "))
		}
	}
	fmt.Fprintln(bw, "UPDATE STATISTICS;")
	return bw.Flush()
}

func sqlRow(row value.Row) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.SQL()
	}
	return strings.Join(parts, ", ")
}

// RunScript executes a multi-statement SQL script (statements separated by
// ';'), stopping at the first error. Line comments (--) are dropped. It
// returns the number of statements executed.
func (db *DB) RunScript(r io.Reader) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, stmt := range splitStatements(string(data)) {
		if strings.TrimSpace(stmt) == "" {
			continue
		}
		if _, err := db.Exec(stmt); err != nil {
			return n, fmt.Errorf("systemr: script statement %d: %w", n+1, err)
		}
		n++
	}
	return n, nil
}

// splitStatements splits on ';' outside string literals, dropping line
// comments (from "--" outside a string literal to the end of the line).
func splitStatements(script string) []string {
	var out []string
	var cur strings.Builder
	inString := false
	for i := 0; i < len(script); i++ {
		c := script[i]
		switch {
		case c == '\'':
			inString = !inString
			cur.WriteByte(c)
		case c == '-' && !inString && strings.HasPrefix(script[i:], "--"):
			for i+1 < len(script) && script[i+1] != '\n' { // keep the newline
				i++
			}
		case c == ';' && !inString:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if strings.TrimSpace(cur.String()) != "" {
		out = append(out, cur.String())
	}
	return out
}
