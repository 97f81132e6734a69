package exec

// Batch-oriented execution. The instrumented operator boundary — a governor
// tick, two wall-clock reads, and two statement-counter reads — is paid once
// per NextBatch call, so it is amortized over up to DefaultBatchSize rows while
// the interior operators keep their own governor checkpoints (scans check per
// tuple examined). The paper's cost model charges W per RSI call, never per
// operator boundary, so the batch size changes no paper unit.
//
// The batch size is a target that bounds one fill, not an allocation: a
// batch's memory follows the rows that actually cross it, so a statement
// that moves one row pays for one row however large the target is.
//
// NextBatch is the only protocol between operators. Scans, projection and
// sort read-back fill batches natively; the operators whose interior logic
// is naturally row-at-a-time (joins, aggregation, duplicate elimination)
// implement rowSource and share one fill loop;
// composite operators read their children through batchReaders. A cursor,
// which needs one row per call, drives the root with a one-row batch, and
// Runtime.BatchSize=1 runs the whole tree tuple-at-a-time (the ablation, and
// DML tuple location).

import "slices"

// DefaultBatchSize is the number of rows an operator aims to move per
// NextBatch call when the runtime does not configure a size.
const DefaultBatchSize = 256

// Batch is a reusable buffer of composite rows with a target fill size. Its
// backing array starts empty, grows as rows arrive, and is reused across
// NextBatch calls, so it holds room for the largest fill so far.
//
// Every operator lends its rows: a batch's rows stay valid until the
// producer's next NextBatch, Open or Close, and an operator that needs a
// row for longer copies it. A scan hands out the rows of the stage it
// decodes into (see scan.go), a sort the read-back rows it copies into
// chunks it reuses (see sort.go), a join composites carved from a chunk it
// reuses, which point into its outer's current batch and at inner values
// it holds (see join.go). What a consumer keeps it copies: a
// grouping its group's representative, a nested loop and a merge join the
// inner values of the rows they keep, a merge join its inner group and a
// hash join its build. Projection, aggregation and duplicate elimination
// hand out fresh rows, because drained queries, cursors and DML targets
// keep them. Below them, once its chunks have grown to a batch, no operator
// allocates per batch but a hash build, which keeps what it copies.
type Batch struct {
	rows   []comp
	target int
}

// NewBatch creates an empty batch whose fills aim at n rows. It allocates
// no room for rows: the first fill does, for the rows it brings.
func NewBatch(n int) *Batch {
	return &Batch{target: max(n, 1)}
}

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return len(b.rows) }

// Cap returns the batch's target fill size.
func (b *Batch) Cap() int { return b.target }

// Full reports whether the batch reached its target size.
func (b *Batch) Full() bool { return len(b.rows) >= b.Cap() }

// grow reserves room for n more rows, up to the target, so a producer that
// knows its row count appends them without regrowing the backing array.
func (b *Batch) grow(n int) {
	if n = min(n, b.Cap()-len(b.rows)); n > 0 {
		b.rows = slices.Grow(b.rows, n)
	}
}

// Reset empties the batch, keeping its backing array.
func (b *Batch) Reset() { b.rows = b.rows[:0] }

// Append adds one row.
func (b *Batch) Append(c comp) { b.rows = append(b.rows, c) }

// Row returns row i.
func (b *Batch) Row(i int) comp { return b.rows[i] }

// rowSource is an operator body whose interior logic yields one row at a
// time. Every implementation reads its input through a batchReader, so its
// next reaches a governor checkpoint. next reports false at the end of its
// input, and also where a join must end its batch (see joiner.endsBatch).
type rowSource interface {
	next() (comp, bool, error)
}

// fillRows is the one batch fill for rowSource bodies: it appends rows from
// src until b is full or src ends the batch. On error the batch's contents
// are undefined.
func fillRows(b *Batch, src rowSource) error {
	for !b.Full() {
		c, ok, err := src.next()
		if err != nil || !ok {
			return err
		}
		b.Append(c)
	}
	return nil
}

// batchReader adapts a child operator's NextBatch stream back to one-row
// reads for a composite operator's interior logic: rows cross the child's
// instrumented boundary a batch at a time and are then served out of the
// buffer. src is the concrete wrapper (not the Operator interface) so the
// governor checkpoint inside NextBatch is statically visible to sysrcheck.
type batchReader struct {
	src  *op
	buf  *Batch
	i    int
	done bool
}

// reader returns a batchReader over src ready for a fresh drain: r itself
// with its buffered rows discarded, or a new reader when r is nil. Callers
// re-arm after (re-)opening src, so a nested-loop inner's reader and buffer
// are reused across loops.
func (ctx *blockCtx) reader(r *batchReader, src *op) *batchReader {
	if r == nil {
		return &batchReader{src: src, buf: NewBatch(ctx.batchN())}
	}
	r.buf.Reset()
	r.i = 0
	r.done = false
	return r
}

// buffered returns how many rows the reader holds beyond the last one next
// returned: what is left of the child's current batch.
func (r *batchReader) buffered() int { return r.buf.Len() - r.i }

// last returns the row next served last. It stays in the buffer until the
// reader refills, which only a later next does.
func (r *batchReader) last() comp { return r.buf.rows[r.i-1] }

// unread steps back over the row next served last, so the next call serves
// it again.
func (r *batchReader) unread() { r.i-- }

// next serves one row, refilling from src as needed.
func (r *batchReader) next() (comp, bool, error) {
	for r.i >= r.buf.Len() {
		if r.done {
			return nil, false, nil
		}
		if err := r.src.NextBatch(r.buf); err != nil {
			return nil, false, err
		}
		r.i = 0
		if r.buf.Len() == 0 {
			r.done = true
			return nil, false, nil
		}
	}
	c := r.buf.rows[r.i]
	r.i++
	return c, true, nil
}
