// Package storage mirrors the surface the govtick analyzer knows about: the
// page producers BufferPool.Fetch and Segment.Insert, the buffer pool's
// DB-global IOStats, and the per-statement StmtIO view.
package storage

type Page struct{}

type IOStats struct{ fetches int64 }

func (s *IOStats) FetchCount() int64 { return s.fetches }

type BufferPool struct{ stats IOStats }

func (bp *BufferPool) Fetch(id int) (*Page, error) { return &Page{}, nil }

func (bp *BufferPool) Stats() *IOStats { return &bp.stats }

func (bp *BufferPool) View(stmt *IOStats) StmtIO { return StmtIO{stmt: stmt} }

type StmtIO struct{ stmt *IOStats }

func (io StmtIO) FetchCount() int64 { return io.stmt.FetchCount() }

type Segment struct{}

func (s *Segment) Insert(n int, rec []byte) (int, error) { return 0, nil }
