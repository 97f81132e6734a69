package analysis

// layering enforces the engine's layer boundaries as one table: each rule
// names the packages it polices, the callees forbidden there, the
// enclosing functions that implement the boundary and are therefore
// exempt, and the message. Three disciplines share it:
//
//   - per-statement I/O accounting (PR 5). The executor attributes page
//     fetches to operators by differencing a counter before and after each
//     call — and under concurrency that counter must be the statement's own
//     accumulator (storage.StmtIO over Runtime.IO), never the buffer pool's
//     DB-global IOStats, which blends concurrent statements' fetches into
//     one statement's EXPLAIN ANALYZE (and batch) deltas. BufferPool.Stats
//     is forbidden in exec, rss, and xsort; DB-wide aggregation (metrics,
//     experiment drivers) lives elsewhere and reads the global ledger.
//   - MVCC visibility (PR 8). Which row versions a statement may see is
//     decided once, at the RSS boundary, by Snapshot.Visible over
//     Page.ReadVersioned. A raw Page.Record, storage.DecodeRow, or
//     storage.ParseVersionHeader in exec or txn would bypass that check and
//     read delete-marked or uncommitted versions — the classic dirty read,
//     invisible until two transactions actually race. Temporary lists are
//     not versioned and have their own codecs; catalog, dump, and testutil
//     read whole heaps under locks that exclude writers, out of scope here.
//   - the undo-logged write path (PR 6). Rollback works by logical undo:
//     internal/txn logs the inverse of every mutation it applies through
//     the rss write path. That holds only if no other write path exists, so
//     the engine packages (systemr, exec, rss) may not call the storage
//     primitives Segment.Insert, Page.Insert/Delete/Restore/SwapXmax, the
//     index primitives BTree.Insert/Delete, or rss's own
//     Insert/MarkDeleted/ClearDeleted/Remove (only txn.Txn may). The rss
//     write-path bodies themselves — and VacuumTable, which reclaims only
//     versions no snapshot can read and so is outside undo's scope — are
//     exempt. The catalog bootstraps system tables with direct segment
//     writes and is out of scope: DDL is not undoable and is rejected
//     inside transactions.

import (
	"go/ast"
	"slices"
	"strings"
)

// Layering is the table-driven layer-boundary analyzer.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "per-statement I/O, MVCC visibility, and undo logging each have one sanctioned layer: no DB-global IOStats in the executor layers, no raw version reads above the RSS, no mutation outside the undo-logged write path",
	Run:  runLayering,
}

// layerRule is one row of the table. Callees are written as funcDisplayName
// renders them (pkgtail.Func, pkgtail.Type.Method); exempt functions as
// pkgtail.Func. In msg, {callee} stands for the callee's short name
// (Type.Method, or pkgtail.Func for a function).
type layerRule struct {
	pkgs    []string
	callees []string
	exempt  []string
	msg     string
}

var (
	mvccVisPkgs  = []string{"exec", "txn"}
	txnUndoPkgs  = []string{"systemr", "exec", "rss"}
	rssWritePath = []string{"rss.Insert", "rss.MarkDeleted", "rss.ClearDeleted", "rss.Remove", "rss.VacuumTable"}
)

var layerRules = []layerRule{
	{pkgs: []string{"exec", "rss", "xsort"}, callees: []string{"storage.BufferPool.Stats"},
		msg: "reads the buffer pool's DB-global IOStats: per-operator deltas must come from the statement's StmtIO accumulator"},
	{pkgs: mvccVisPkgs, callees: []string{"storage.Page.Record"},
		msg: "raw Page.Record bypasses MVCC visibility: read through the RSS scans (ReadVersioned + Snapshot.Visible)"},
	{pkgs: mvccVisPkgs, callees: []string{"storage.DecodeRow", "storage.AppendDecodedRow"},
		msg: "{callee} on a heap record bypasses MVCC visibility: rows reach this layer already decoded by the RSS"},
	{pkgs: mvccVisPkgs, callees: []string{"storage.ParseVersionHeader"},
		msg: "hand-rolled version-header parsing bypasses MVCC visibility: use the RSS scans over ReadVersioned"},
	{pkgs: txnUndoPkgs, exempt: rssWritePath,
		callees: []string{"storage.Segment.Insert", "storage.Page.Insert", "storage.Page.Delete", "storage.Page.Restore", "storage.Page.SwapXmax"},
		msg:     "direct storage mutation {callee} escapes the undo log: write through txn.Txn"},
	{pkgs: txnUndoPkgs, exempt: rssWritePath, callees: []string{"btree.BTree.Insert", "btree.BTree.Delete"},
		msg: "direct index mutation {callee} escapes the undo log: write through txn.Txn"},
	{pkgs: txnUndoPkgs, exempt: rssWritePath, callees: []string{"rss.Insert", "rss.MarkDeleted", "rss.ClearDeleted", "rss.Remove"},
		msg: "{callee} called outside the transaction layer: mutations must flow through txn.Txn, which logs undo"},
}

func runLayering(pass *Pass) error {
	tail := pathTail(pass.Pkg.Path)
	var rules []layerRule
	for _, r := range layerRules {
		if slices.Contains(r.pkgs, tail) {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		walkWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			name := funcDisplayName(fn)
			for _, r := range rules {
				if slices.Contains(r.callees, name) && !slices.Contains(r.exempt, tail+"."+enclosingFuncName(stack)) {
					short := name
					if recvNamed(fn) != nil {
						short = name[strings.IndexByte(name, '.')+1:]
					}
					pass.Reportf(call.Pos(), "%s", strings.ReplaceAll(r.msg, "{callee}", short))
				}
			}
			return true
		})
	}
	return nil
}
