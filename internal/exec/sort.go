package exec

// Sort operator: materializes its input into a temporary list ordered by the
// sort keys, flattening composites through the row codec so the temp pages
// hold real serialized tuples.

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

	// Rows are flattened into, and read-back composites carved from, shared
	// chunks (never reused, so consumers may retain rows): flat holds the
	// unused tail of the current input chunk, comps of the output chunk.
	flat  value.Row
	comps []value.Row
	left  int // sorted rows not yet delivered
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
// flattened row: the read-back row is shared, never copied.
func (l *compLayout) unflatten(c comp, row value.Row) {
	for i, off := range l.offsets {
		if row[off].Int == 0 {
			continue
		}
		end := off + 1 + l.widths[i]
		c[i] = row[off+1 : end : end]
	}
}

// open drains the input into the sorter. The input is closed as soon as it
// is consumed; the operator then streams from the sorted temporary list.
func (it *sortOp) open() (err error) {
	it.res, it.flat, it.comps, it.left = nil, nil, nil, 0
	if err := it.input.Open(); err != nil {
		return err
	}
	defer func() {
		if cerr := it.input.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	it.layout = newCompLayout(it.ctx.q.Block)
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
		Keys: keys, Desc: desc, CountRSI: true,
		Stmt: it.ctx.rt.IO, Budget: it.ctx.rt.Budget,
	}, func() (value.Row, bool, error) {
		c, ok, err := it.read.next()
		if err != nil || !ok {
			return nil, false, err
		}
		// One chunk per input batch, sized for the rows it still holds.
		w := it.layout.total
		if len(it.flat) < w {
			it.flat = make(value.Row, (it.read.buffered()+1)*w)
		}
		out := it.flat[:w:w]
		it.flat = it.flat[w:]
		it.layout.flatten(out, c)
		it.left++
		return out, true, nil
	})
	it.flat = nil
	if err != nil {
		return err
	}
	it.res = res
	return nil
}

func (it *sortOp) next() (comp, bool, error) {
	row, ok, err := it.res.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	// One composite chunk per batch's worth of the rows still to come.
	nr := len(it.layout.offsets)
	if len(it.comps) < nr {
		it.comps = make([]value.Row, min(max(it.left, 1), it.ctx.batchN)*nr)
	}
	c := comp(it.comps[:nr:nr])
	it.comps = it.comps[nr:]
	it.left--
	it.layout.unflatten(c, row)
	return c, true, nil
}

// nextBatch streams a batch from the sorted temporary list. The result
// reader checks the governor per tuple read back.
func (it *sortOp) nextBatch(b *Batch) error { return fillRows(b, it) }

func (it *sortOp) close() error {
	if it.res != nil {
		it.res.Close()
		it.res = nil
	}
	it.comps = nil
	return it.input.Close()
}
