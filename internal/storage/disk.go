package storage

import (
	"sync"
	"systemr/internal/check"
)

// Disk is the simulated non-volatile store: a growable array of pages.
// All reads go through a BufferPool; the Disk itself only allocates and
// hands out page frames.
//
// The paper ran on real DASD; here the "device" is memory, but because the
// optimizer's cost model is expressed in page fetches (buffer-pool misses)
// rather than seconds, the simulation preserves every quantity the paper's
// formulas predict.
type Disk struct {
	mu    sync.Mutex
	pages []*Page
	free  []PageID // pages given back by FreePage, for AllocPage to reuse
}

// NewDisk returns an empty disk.
func NewDisk() *Disk { return &Disk{} }

// AllocPage allocates an initialized, empty slotted page and returns its
// ID: a freed page when there is one, re-initialized, else a new one.
func (d *Disk) AllocPage() (PageID, *Page) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.free); n > 0 {
		id := d.free[n-1]
		d.free = d.free[:n-1]
		p := d.pages[id]
		p.InitPage()
		return id, p
	}
	id := PageID(len(d.pages))
	p := &Page{ID: id}
	p.InitPage()
	d.pages = append(d.pages, p)
	return id, p
}

// FreePage gives page id back for AllocPage to reuse: sorts free their
// temporary pages once the pages are read. The caller holds no reference to
// the page and has evicted it from the buffer pool. Virtual pages are never
// freed.
func (d *Disk) FreePage(id PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) || d.pages[id] == nil {
		check.Failf("storage: free of unallocated or virtual page %d", id)
	}
	d.free = append(d.free, id)
}

// AllocVirtual reserves a page ID with no byte image behind it. The B-tree
// registers its in-memory nodes as virtual pages so that node visits are
// accounted by the buffer pool exactly like data-page fetches (see DESIGN.md,
// "Substitutions").
func (d *Disk) AllocVirtual() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(len(d.pages))
	d.pages = append(d.pages, nil)
	return id
}

// Page returns the frame for id without I/O accounting. Callers measuring a
// query must go through BufferPool.Get instead; Page is for loading paths and
// statistics collection, which the paper's measurements exclude.
func (d *Disk) Page(id PageID) *Page { return d.page(id) }

// page returns the frame for id, failing hard on out-of-range access: a page
// ID always originates from AllocPage, so a miss is a bug, not an input error.
func (d *Disk) page(id PageID) *Page {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		check.Failf("storage: access to unallocated page %d", id)
	}
	return d.pages[id]
}

// NumPages returns the number of allocated pages (real and virtual), freed
// pages included: the disk's size, which freeing does not shrink.
func (d *Disk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}
