// Package btree implements the B-tree indexes of the Research Storage System
// (Section 3): indexes "are implemented as B-trees, whose leaves are pages
// containing sets of (key, identifiers of tuples which contain that key)",
// with leaf pages chained together so that sequential NEXTs never touch upper
// levels of the tree.
//
// Nodes are Go structs, but every node is registered as a page with the
// simulated disk and every node visit during a scan is routed through the
// buffer pool, so NINDX (index page count) and measured index page fetches
// behave exactly as the paper's on-disk trees do. See DESIGN.md,
// "Substitutions".
package btree

import (
	"fmt"
	"sync"

	"systemr/internal/storage"
	"systemr/internal/value"
)

// Entry is one (key, tuple identifier) pair stored in a leaf.
type Entry struct {
	Key value.Row
	TID storage.TID
}

// compareEntries orders entries by key, breaking ties by TID so duplicate
// keys have a deterministic total order (required for exact-once deletion).
func compareEntries(a, b Entry) int {
	if c := value.CompareKey(a.Key, b.Key); c != 0 {
		return c
	}
	return a.TID.Compare(b.TID)
}

// ComparePrefix compares a full key against a (possibly shorter) prefix,
// looking only at the prefix's columns. It returns 0 when the full key's
// leading columns equal the prefix — the matching rule behind the paper's
// "initial substring of the set of columns of the index key".
func ComparePrefix(full value.Row, prefix []value.Value) int {
	for i := range prefix {
		if i >= len(full) {
			return -1
		}
		if c := value.Compare(full[i], prefix[i]); c != 0 {
			return c
		}
	}
	return 0
}

type node struct {
	pageID   storage.PageID
	leaf     bool
	entries  []Entry // leaf only
	keys     []Entry // internal: keys[i] is the smallest entry under children[i+1]
	children []*node // internal only
	next     *node   // leaf chain
	prev     *node
}

// Config tunes node fan-out. Small orders are useful in tests to force deep
// trees; the default approximates 4K pages of ~20-byte entries.
type Config struct {
	// Order is the maximum number of entries (leaf) or children (internal)
	// per node. Minimum 4.
	Order int
}

// DefaultOrder approximates how many (key, TID) pairs fit a 4K index page.
const DefaultOrder = 200

// BTree is a B+-tree from composite keys to tuple identifiers.
//
// Concurrency: mutations take the tree-wide write lock and bump a version
// counter; Seek and Iterator.Next read under the shared lock. An iterator
// that observes a version change re-seeks from the last entry it returned
// (strictly greater), so MVCC snapshot scans survive concurrent inserts and
// deletes without ever seeing a torn node — at worst an entry inserted
// mid-scan behind the cursor is missed, which is fine: such entries belong
// to versions the scanning snapshot cannot see anyway.
type BTree struct {
	mu      sync.RWMutex
	version uint64
	disk    *storage.Disk
	order   int
	root    *node
	height  int
	entries int
	nodes   int
	// firstLeaf anchors the leaf chain for full scans.
	firstLeaf *node
}

// New creates an empty tree whose nodes are registered as pages on disk.
func New(disk *storage.Disk, cfg Config) *BTree {
	order := cfg.Order
	if order == 0 {
		order = DefaultOrder
	}
	if order < 4 {
		order = 4
	}
	t := &BTree{disk: disk, order: order, height: 1}
	t.root = t.newNode(true)
	t.firstLeaf = t.root
	return t
}

func (t *BTree) newNode(leaf bool) *node {
	t.nodes++
	return &node{pageID: t.disk.AllocVirtual(), leaf: leaf}
}

// Len returns the number of stored entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.entries
}

// NumPages returns NINDX: the number of index pages (nodes).
func (t *BTree) NumPages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes
}

// Height returns the number of levels (1 = just a root leaf).
func (t *BTree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// Insert adds a (key, tid) pair. Duplicate keys are allowed; duplicate
// (key, tid) pairs are rejected. The tree keeps key itself, not a copy: the
// caller hands it over and must not change it afterwards (nor append to it
// in place, when it shares an array with other keys).
func (t *BTree) Insert(key value.Row, tid storage.TID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Entry{Key: key, TID: tid}
	mid, right, dup := t.insert(t.root, e)
	if dup {
		return false
	}
	t.version++
	if right != nil {
		newRoot := t.newNode(false)
		newRoot.children = []*node{t.root, right}
		newRoot.keys = []Entry{mid}
		t.root = newRoot
		t.height++
	}
	t.entries++
	return true
}

// insert descends into n; on split it returns the separator entry and the
// new right sibling.
func (t *BTree) insert(n *node, e Entry) (sep Entry, right *node, dup bool) {
	if n.leaf {
		i := lowerBound(n.entries, e)
		if i < len(n.entries) && compareEntries(n.entries[i], e) == 0 {
			return Entry{}, nil, true
		}
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = e
		if len(n.entries) <= t.order {
			return Entry{}, nil, false
		}
		// Split leaf.
		mid := len(n.entries) / 2
		r := t.newNode(true)
		r.entries = append(r.entries, n.entries[mid:]...)
		n.entries = n.entries[:mid:mid]
		r.next = n.next
		if r.next != nil {
			r.next.prev = r
		}
		r.prev = n
		n.next = r
		return r.entries[0], r, false
	}
	ci := childIndex(n.keys, e)
	sep, rchild, dup := t.insert(n.children[ci], e)
	if dup || rchild == nil {
		return Entry{}, nil, dup
	}
	n.keys = append(n.keys, Entry{})
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = rchild
	if len(n.children) <= t.order {
		return Entry{}, nil, false
	}
	// Split internal node: middle key moves up.
	midK := len(n.keys) / 2
	up := n.keys[midK]
	r := t.newNode(false)
	r.keys = append(r.keys, n.keys[midK+1:]...)
	r.children = append(r.children, n.children[midK+1:]...)
	n.keys = n.keys[:midK:midK]
	n.children = n.children[: midK+1 : midK+1]
	return up, r, false
}

// lowerBound returns the first index i with entries[i] >= e.
func lowerBound(entries []Entry, e Entry) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		m := (lo + hi) / 2
		if compareEntries(entries[m], e) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// childIndex picks the child to descend into for entry e.
func childIndex(keys []Entry, e Entry) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := (lo + hi) / 2
		if compareEntries(keys[m], e) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Delete removes the exact (key, tid) pair, reporting whether it was found.
// Underflowing nodes are not rebalanced (a documented simplification: the
// paper's workloads are load-then-query); empty leaves are unlinked from the
// chain lazily by iteration.
func (t *BTree) Delete(key value.Row, tid storage.TID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Entry{Key: key, TID: tid}
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, e)]
	}
	i := lowerBound(n.entries, e)
	if i >= len(n.entries) || compareEntries(n.entries[i], e) != 0 {
		return false
	}
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	t.entries--
	t.version++
	return true
}

// seekLeaf descends to the leaf that may contain the first entry with
// key-prefix >= prefix, accounting every node touched through io.
func (t *BTree) seekLeaf(io storage.StmtIO, prefix []value.Value) (*node, int) {
	n := t.root
	probe := Entry{Key: value.Row(prefix)}
	for {
		io.Touch(n.pageID)
		if n.leaf {
			break
		}
		// Descend left of the first separator whose prefix-compare is >= 0 so
		// that duplicates of the boundary key in the left subtree are found.
		ci := len(n.keys)
		for i, k := range n.keys {
			if ComparePrefix(k.Key, prefix) >= 0 {
				ci = i
				break
			}
		}
		n = n.children[ci]
	}
	_ = probe
	i := 0
	for i < len(n.entries) && ComparePrefix(n.entries[i].Key, prefix) < 0 {
		i++
	}
	return n, i
}

// Iterator walks leaf entries in key order, accounting one page touch per
// leaf visited (the chained-leaf property: NEXTs never re-touch upper
// levels). Each Next runs under the tree's shared lock; when the tree's
// version has moved since the last call (a concurrent insert or delete), the
// iterator re-seeks to the first entry strictly greater than the last one it
// returned, so it never dereferences a node the mutation restructured.
type Iterator struct {
	io storage.StmtIO
	t  *BTree
	n  *node
	i  int

	ver     uint64
	prefix  []value.Value // the caller's Seek prefix, for re-seeks before the first Next
	started bool          // an entry has been returned; last is valid
	last    Entry
}

// Seek returns an iterator positioned at the first entry whose key has
// prefix >= the given prefix (nil or empty prefix = the first entry).
// Page touches are accounted through io — a statement-scoped view so
// concurrent statements' index descents stay separately attributed; the zero
// StmtIO walks without accounting (catalog probes). The iterator reads
// prefix again if the tree changes before its first Next, so the caller
// leaves prefix as it is until then.
func (t *BTree) Seek(io storage.StmtIO, prefix []value.Value) *Iterator {
	return t.SeekInto(nil, io, prefix)
}

// SeekInto is Seek re-seating it, or a new iterator when it is nil, and
// returns the seated iterator: a scan re-opened per outer row of a nested
// loop allocates no iterator per probe.
func (t *BTree) SeekInto(it *Iterator, io storage.StmtIO, prefix []value.Value) *Iterator {
	if it == nil {
		it = new(Iterator)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	*it = Iterator{io: io, t: t, ver: t.version, prefix: prefix}
	it.position()
	return it
}

// position seats the iterator at the first entry matching its prefix.
// Called with the tree's read lock held.
func (it *Iterator) position() {
	t := it.t
	if len(it.prefix) == 0 {
		// Locating the first leaf still costs a root-to-leaf descent.
		for d, c := 0, t.root; d < t.height; d++ {
			it.io.Touch(c.pageID)
			if !c.leaf {
				c = c.children[0]
			}
		}
		it.n, it.i = t.firstLeaf, 0
		it.skipEmpty(false)
		return
	}
	it.n, it.i = t.seekLeaf(it.io, it.prefix)
	it.skipEmpty(true)
}

// reseek re-seats a live iterator after a concurrent tree mutation: a fresh
// root-to-leaf descent to the first entry strictly greater than the last
// entry returned. Called with the tree's read lock held.
func (it *Iterator) reseek() {
	n := it.t.root
	for {
		it.io.Touch(n.pageID)
		if n.leaf {
			break
		}
		n = n.children[childIndex(n.keys, it.last)]
	}
	i := lowerBound(n.entries, it.last)
	if i < len(n.entries) && compareEntries(n.entries[i], it.last) == 0 {
		i++
	}
	it.n, it.i = n, i
	it.skipEmpty(true)
}

// skipEmpty advances past exhausted leaves. touched reports whether the
// current leaf was already accounted.
func (it *Iterator) skipEmpty(touched bool) {
	for it.n != nil && it.i >= len(it.n.entries) {
		it.n = it.n.next
		it.i = 0
		touched = false
	}
	if it.n != nil && !touched {
		it.io.Touch(it.n.pageID)
	}
}

// Next returns the entry under the cursor and advances. ok is false at end.
// The returned entry is safe to use after the call: entry keys are immutable
// once stored, and mutations shift entry structs without touching key
// contents.
func (it *Iterator) Next() (Entry, bool) {
	it.t.mu.RLock()
	defer it.t.mu.RUnlock()
	if it.ver != it.t.version {
		it.ver = it.t.version
		if it.started {
			it.reseek()
		} else {
			it.position()
		}
	}
	if it.n == nil || it.i >= len(it.n.entries) {
		return Entry{}, false
	}
	e := it.n.entries[it.i]
	it.i++
	if it.i >= len(it.n.entries) {
		it.n = it.n.next
		it.i = 0
		if it.n != nil {
			it.io.Touch(it.n.pageID)
		}
		it.skipEmpty(true)
	}
	it.last = e
	it.started = true
	return e, true
}

// Stats scans the tree (without I/O accounting) and returns the statistics
// Section 4 keeps per index: ICARD (distinct full keys), the distinct count
// of the leading key column (used for "1/ICARD(column index)" selectivities
// on the major column), NINDX (pages), and the minimum and maximum value of
// the first key column, which feed the linear-interpolation selectivity of
// Table 1.
func (t *BTree) Stats() (icard, icardLead, nindx int, low, high value.Value) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	nindx = t.nodes
	var prev value.Row
	first := true
	for n := t.firstLeaf; n != nil; n = n.next {
		for _, e := range n.entries {
			if first {
				low = e.Key[0]
				icard = 1
				icardLead = 1
				prev = e.Key
				first = false
				continue
			}
			if value.CompareKey(e.Key, prev) != 0 {
				icard++
				if value.Compare(e.Key[0], prev[0]) != 0 {
					icardLead++
				}
				prev = e.Key
			}
		}
	}
	if !first {
		// Highest first-column value: last entry of last non-empty leaf.
		for n := t.firstLeaf; n != nil; n = n.next {
			if len(n.entries) > 0 {
				high = n.entries[len(n.entries)-1].Key[0]
			}
		}
	}
	return icard, icardLead, nindx, low, high
}

// Leaves returns every leaf's entries in leaf-chain order: the tree's leaf
// sequence, which tests compare with a reference build. The slices alias
// the tree; callers must not modify them.
func (t *BTree) Leaves() [][]Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out [][]Entry
	for n := t.firstLeaf; n != nil; n = n.next {
		out = append(out, n.entries)
	}
	return out
}

// Validate checks structural invariants: sorted leaves, correct entry count,
// consistent leaf chain. Tests call it after randomized workloads.
func (t *BTree) Validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	count := 0
	var prev *Entry
	for n := t.firstLeaf; n != nil; n = n.next {
		for i := range n.entries {
			e := &n.entries[i]
			if prev != nil && compareEntries(*prev, *e) >= 0 {
				return fmt.Errorf("btree: leaf entries out of order: %v !< %v", prev.Key, e.Key)
			}
			prev = e
			count++
		}
		if n.next != nil && n.next.prev != n {
			return fmt.Errorf("btree: broken leaf chain at page %d", n.pageID)
		}
	}
	if count != t.entries {
		return fmt.Errorf("btree: entry count %d != leaf total %d", t.entries, count)
	}
	return nil
}
