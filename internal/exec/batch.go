package exec

// Batch-oriented execution. The instrumented operator boundary — a governor
// tick, two wall-clock reads, and two statement-counter reads — is paid once
// per NextBatch call, so it is amortized over DefaultBatchSize rows while the
// interior operators keep their own governor checkpoints (scans check per
// tuple examined). The paper's cost model charges W per RSI call, never per
// operator boundary, so the batch size changes no paper unit.
//
// NextBatch is the only protocol between operators. Scans and projection
// fill batches natively; the operators whose interior logic is naturally
// row-at-a-time (joins, sort read-back, aggregation, duplicate
// elimination) implement rowSource and share one fill loop;
// composite operators read their children through batchReaders. Callers
// that need one row per call — cursors and DML tuple location — drive the
// root or leaf with a one-row batch, and Runtime.BatchSize=1 runs the whole
// tree tuple-at-a-time (the ablation).

// DefaultBatchSize is the number of rows an operator aims to move per
// NextBatch call when the runtime does not configure a size.
const DefaultBatchSize = 256

// Batch is a reusable buffer of composite rows. The backing array is reused
// across NextBatch calls; the rows themselves are allocated by the producing
// operator, which never writes them again, so a consumer may retain them
// across batches — nested-loop outer rows, merge-join groups, hash builds
// and grouping representatives depend on that.
//
// Producers allocate per batch, not per row: a scan decodes every version
// into a stage it reuses (see scan.go) and copies the batch's accepted rows
// out into one exactly sized value chunk and one composite chunk;
// projection and sort read-back carve their rows from chunks sized for the
// rows at hand. Nothing in a batch aliases a buffer its producer reuses.
type Batch struct {
	rows []comp
}

// NewBatch creates a batch with capacity n (the target rows per fill).
func NewBatch(n int) *Batch {
	if n < 1 {
		n = 1
	}
	return &Batch{rows: make([]comp, 0, n)}
}

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return len(b.rows) }

// Cap returns the batch's target fill size.
func (b *Batch) Cap() int { return cap(b.rows) }

// Full reports whether the batch reached its target size.
func (b *Batch) Full() bool { return len(b.rows) == cap(b.rows) }

// Reset empties the batch, keeping its backing array.
func (b *Batch) Reset() { b.rows = b.rows[:0] }

// Append adds one row.
func (b *Batch) Append(c comp) { b.rows = append(b.rows, c) }

// Row returns row i.
func (b *Batch) Row(i int) comp { return b.rows[i] }

// rowSource is an operator body whose interior logic yields one row at a
// time. Every implementation reads its input through a batchReader or a
// governed sorter, so its next reaches a governor checkpoint.
type rowSource interface {
	next() (comp, bool, error)
}

// fillRows is the one batch fill for rowSource bodies: it appends rows from
// src until b is full or src is exhausted. On error the batch's contents are
// undefined.
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
		return &batchReader{src: src, buf: NewBatch(ctx.batchN)}
	}
	r.buf.Reset()
	r.i = 0
	r.done = false
	return r
}

// buffered returns how many rows the reader holds beyond the last one next
// returned: what is left of the child's current batch.
func (r *batchReader) buffered() int { return r.buf.Len() - r.i }

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
