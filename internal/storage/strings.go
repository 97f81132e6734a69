package storage

import "unsafe"

// Strings is an append-only arena for decoded VARCHAR values: a decoder
// carves each string from the arena's current byte chunk instead of
// allocating it alone. The first chunk holds exactly the first string;
// each later chunk doubles the one before, up to maxStringsChunk, and a
// string longer than that gets a chunk of its own. Carved bytes are never
// written again, so a string stays valid however long its holder keeps it,
// and keeping one pins at most one chunk. The zero value is ready to use;
// a nil *Strings copies every string into its own allocation. An arena
// belongs to one goroutine.
type Strings struct {
	chunk []byte // carved bytes, then the chunk's unused room
}

// maxStringsChunk caps an arena chunk's size.
const maxStringsChunk = 4096

// Carve returns a string holding a copy of b.
func (a *Strings) Carve(b []byte) string {
	if a == nil {
		return string(b)
	}
	n := len(b)
	if n == 0 {
		return ""
	}
	if cap(a.chunk)-len(a.chunk) < n {
		size := min(max(2*cap(a.chunk), n), maxStringsChunk)
		if n > size {
			return string(b)
		}
		a.chunk = make([]byte, 0, size)
	}
	start := len(a.chunk)
	a.chunk = append(a.chunk, b...)
	return unsafe.String(&a.chunk[start], n)
}
