package btree

// Bottom-up bulk loading for CREATE INDEX: System R built an index by
// scanning the relation, sorting the (key, TID) pairs, and writing packed
// leaf pages with the upper levels constructed above them — far fewer page
// splits (and a smaller NINDX) than tuple-at-a-time insertion.

import (
	"slices"

	"systemr/internal/storage"
)

// loadFill is the fraction of a node filled during bulk load, leaving slack
// for later insertions.
const loadFill = 0.9

// SortEntries sorts entries in place into BulkLoad's order: by key, then TID.
func SortEntries(entries []Entry) { slices.SortFunc(entries, compareEntries) }

// BulkLoad builds a tree from entries, which it takes over: it sorts them
// in place by key, then TID, unless they already are in that order
// (SortEntries), collapses exact (key, TID) duplicates, and lays the leaves
// over the array itself. The caller must not use entries again.
func BulkLoad(disk *storage.Disk, cfg Config, entries []Entry) *BTree {
	t := New(disk, cfg)
	if len(entries) == 0 {
		return t
	}
	// compareEntries is a total order on (key, TID), and entries it calls
	// equal collapse into one below, so an unstable sort builds the same
	// tree as a stable one.
	if !slices.IsSortedFunc(entries, compareEntries) {
		SortEntries(entries)
	}
	// Collapse exact duplicates.
	dedup := entries[:1]
	for _, e := range entries[1:] {
		if compareEntries(dedup[len(dedup)-1], e) != 0 {
			dedup = append(dedup, e)
		}
	}

	perLeaf := int(float64(t.order) * loadFill)
	if perLeaf < 2 {
		perLeaf = 2
	}

	// Build packed leaves, each over its run of dedup, capped so that an
	// insert into a leaf copies it out instead of overwriting the next. The
	// root leaf created by New becomes the first.
	var leaves []*node
	first := t.root
	end := minInt(perLeaf, len(dedup))
	first.entries = dedup[:end:end]
	leaves = append(leaves, first)
	for off := perLeaf; off < len(dedup); off += perLeaf {
		leaf := t.newNode(true)
		end := minInt(off+perLeaf, len(dedup))
		leaf.entries = dedup[off:end:end]
		prev := leaves[len(leaves)-1]
		prev.next = leaf
		leaf.prev = prev
		leaves = append(leaves, leaf)
	}
	t.firstLeaf = leaves[0]
	t.entries = len(dedup)

	// Build internal levels until one root remains.
	level := leaves
	perNode := int(float64(t.order) * loadFill)
	if perNode < 2 {
		perNode = 2
	}
	height := 1
	for len(level) > 1 {
		var parents []*node
		for off := 0; off < len(level); off += perNode {
			end := minInt(off+perNode, len(level))
			p := t.newNode(false)
			p.children = append(p.children, level[off:end]...)
			for i := off + 1; i < end; i++ {
				p.keys = append(p.keys, firstEntry(level[i]))
			}
			parents = append(parents, p)
		}
		// A trailing parent with a single child would break the child-count
		// invariant for childIndex; merge it into its left sibling.
		if n := len(parents); n > 1 && len(parents[n-1].children) == 1 {
			last, prev := parents[n-1], parents[n-2]
			prev.keys = append(prev.keys, firstEntry(last.children[0]))
			prev.children = append(prev.children, last.children[0])
			parents = parents[:n-1]
			t.nodes--
		}
		level = parents
		height++
	}
	t.root = level[0]
	t.height = height
	return t
}

// firstEntry returns the smallest entry under n (leftmost descent).
func firstEntry(n *node) Entry {
	for !n.leaf {
		n = n.children[0]
	}
	return n.entries[0]
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
