package storage

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// TestStringsArena: carved strings keep their bytes through later carves
// and chunk turnover, and are never aliases of the bytes they were carved
// from; chunks go exact, then doubling, then capped at 4 KB; a string
// longer than the cap gets its own allocation and leaves the current chunk
// as it was; a nil arena copies.
func TestStringsArena(t *testing.T) {
	var a Strings
	src := make([]byte, 0, 64)
	var kept []string
	var want []string
	var caps []int
	for i := 0; i < 2000; i++ {
		src = fmt.Appendf(src[:0], "s%04d", i) // 5 bytes
		before := cap(a.chunk)
		kept = append(kept, a.Carve(src))
		want = append(want, string(src))
		if cap(a.chunk) != before {
			caps = append(caps, cap(a.chunk))
		}
		for j := range src {
			src[j] = '#'
		}
	}
	for i := range kept {
		if kept[i] != want[i] {
			t.Fatalf("string %d reads %q after later carves, want %q", i, kept[i], want[i])
		}
	}
	wantCaps := []int{5, 10, 20, 40, 80, 160, 320, 640, 1280, 2560, 4096}
	if len(caps) < len(wantCaps) || fmt.Sprint(caps[:len(wantCaps)]) != fmt.Sprint(wantCaps) {
		t.Fatalf("chunk sizes %v, want %v then 4096s", caps, wantCaps)
	}
	for _, c := range caps[len(wantCaps):] {
		if c != maxStringsChunk {
			t.Fatalf("chunk of %d bytes past the cap, want %d", c, maxStringsChunk)
		}
	}

	// Two strings of one chunk sit back to back in it.
	x, y := a.Carve([]byte("ab")), a.Carve([]byte("cd"))
	if unsafe.StringData(y) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(x)), 2)) {
		t.Fatalf("consecutive carves do not share a chunk")
	}

	// A string over the cap is allocated alone; the chunk is untouched.
	long := bytes.Repeat([]byte("L"), maxStringsChunk+1)
	l0, c0 := len(a.chunk), cap(a.chunk)
	if s := a.Carve(long); s != string(long) {
		t.Fatalf("long carve changed the string")
	}
	if len(a.chunk) != l0 || cap(a.chunk) != c0 {
		t.Fatalf("long carve moved the chunk: len %d cap %d, was %d %d", len(a.chunk), cap(a.chunk), l0, c0)
	}

	// The empty string takes no room.
	if s := a.Carve(nil); s != "" || len(a.chunk) != l0 {
		t.Fatalf("empty carve: %q, chunk len %d, was %d", s, len(a.chunk), l0)
	}

	// A nil arena copies.
	var none *Strings
	b := []byte("copy me")
	s := none.Carve(b)
	copy(b, strings.Repeat("#", len(b)))
	if s != "copy me" {
		t.Fatalf("nil-arena string aliases its source: %q", s)
	}
}
