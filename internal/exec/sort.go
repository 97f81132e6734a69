package exec

// Sort operator: materializes its input into a temporary list ordered by the
// sort keys, flattening composites through the row codec so the temp pages
// hold real serialized tuples. Each input row is flattened before the next is
// read, so the sort keeps nothing of its input's batches. It lends its
// read-back rows: each batch is copied into a value chunk and a composite
// chunk the sort reuses, valid until its next NextBatch, Open or Close.

import (
	"systemr/internal/sem"
	"systemr/internal/value"
	"systemr/internal/xsort"
)

type sortOp struct {
	ctx    *blockCtx
	input  *op
	keys   []sem.OrderKey
	layout *compLayout
	res    *xsort.Result
	read   *batchReader

	flat  value.Row   // the one row every input row is flattened into
	vals  value.Row   // the read-back value chunk, reused across batches
	comps []value.Row // the read-back composite chunk, likewise
	left  int         // sorted rows not yet delivered
}

// compLayout maps (relation, column) to positions in a flattened row:
// [flag, cols...] per relation, concatenated.
type compLayout struct {
	offsets []int // start of each relation's section
	widths  []int // columns per relation
	total   int
}

func newCompLayout(blk *sem.Block) *compLayout {
	l := &compLayout{offsets: make([]int, len(blk.Rels)), widths: make([]int, len(blk.Rels))}
	pos := 0
	for i, r := range blk.Rels {
		l.offsets[i] = pos
		l.widths[i] = len(r.Table.Columns)
		pos += 1 + l.widths[i]
	}
	l.total = pos
	return l
}

func (l *compLayout) pos(id sem.ColumnID) int { return l.offsets[id.Rel] + 1 + id.Col }

// flatten writes c's flattened form into out (len l.total).
func (l *compLayout) flatten(out value.Row, c comp) {
	for i := range l.offsets {
		if c[i] == nil {
			out[l.offsets[i]] = value.NewInt(0)
			for j := 0; j < l.widths[i]; j++ {
				out[l.offsets[i]+1+j] = value.Null()
			}
			continue
		}
		out[l.offsets[i]] = value.NewInt(1)
		copy(out[l.offsets[i]+1:], c[i])
	}
}

// unflatten fills c (len = relations) with capacity-clipped slices of a
// flattened row, nil for a relation the row does not hold: the row is
// shared, never copied.
func (l *compLayout) unflatten(c comp, row value.Row) {
	for i, off := range l.offsets {
		c[i] = nil
		if row[off].Int != 0 {
			end := off + 1 + l.widths[i]
			c[i] = row[off+1 : end : end]
		}
	}
}

// open drains the input into the sorter, flattening every input row into
// one reused row: the sorter encodes each row before it reads the next. The
// input is closed as soon as it is consumed; the operator then streams from
// the sorted temporary list.
func (it *sortOp) open() (err error) {
	it.res, it.left = nil, 0
	if err := it.input.Open(); err != nil {
		return err
	}
	defer func() {
		if cerr := it.input.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if it.layout == nil {
		it.layout = newCompLayout(it.ctx.q.Block)
	}
	keys := make([]int, len(it.keys))
	desc := make([]bool, len(it.keys))
	for i, k := range it.keys {
		keys[i] = it.layout.pos(k.Col)
		desc[i] = k.Desc
	}
	// Drain the input through a batch adapter so its boundary is paid per
	// batch; the sorter keeps its own interior governor checkpoints.
	it.read = it.ctx.reader(it.read, it.input)
	res, err := xsort.Sort(xsort.Config{
		Pool: it.ctx.rt.Pool, Disk: it.ctx.rt.Disk,
		Keys: keys, Desc: desc,
		Stmt: it.ctx.rt.IO, Budget: it.ctx.rt.Budget,
	}, func() (value.Row, bool, error) {
		c, ok, err := it.read.next()
		if err != nil || !ok {
			return nil, false, err
		}
		if it.flat == nil {
			it.flat = make(value.Row, it.layout.total)
		}
		it.layout.flatten(it.flat, c)
		it.left++
		return it.flat, true, nil
	})
	if err != nil {
		return err
	}
	it.res = res
	return nil
}

// nextBatch copies each read-back row, valid only until the next is read,
// into the value chunk and slices it into composites from the composite
// chunk; the chunks grow to the largest batch and are reused for every one.
func (it *sortOp) nextBatch(b *Batch) error {
	n := min(it.left, b.Cap())
	if n == 0 {
		return nil
	}
	w, nr := it.layout.total, len(it.layout.offsets)
	if len(it.comps) < n*nr {
		it.vals, it.comps = make(value.Row, n*w), make([]value.Row, n*nr)
	}
	vals, comps := it.vals, it.comps
	b.grow(n)
	for range n {
		row, ok, err := it.res.Next()
		if err != nil || !ok {
			return err
		}
		out := vals[:w:w]
		vals = vals[w:]
		copy(out, row)
		c := comp(comps[:nr:nr])
		comps = comps[nr:]
		it.layout.unflatten(c, out)
		b.Append(c)
		it.left--
	}
	return nil
}

func (it *sortOp) close() error {
	if it.res != nil {
		it.res.Close()
		it.res = nil
	}
	return it.input.Close()
}
