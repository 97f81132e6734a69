//go:build !race

package storage

import "testing"

// TestBufferPoolAllocatesNothing: once every frame is in use and the page
// table covers the disk, neither a hit nor a miss — with its eviction —
// allocates. (The race detector changes allocation counts, so this runs
// only without it.)
func TestBufferPoolAllocatesNothing(t *testing.T) {
	disk := NewDisk()
	var ids []PageID
	for i := 0; i < 16; i++ {
		id, _ := disk.AllocPage()
		ids = append(ids, id)
	}
	stats := &IOStats{}
	pool := NewBufferPool(disk, 4, stats)
	view := pool.View(&IOStats{})
	for _, id := range ids { // warm-up: hand out every frame
		pool.Get(id)
	}

	before := stats.Snapshot()
	misses := testing.AllocsPerRun(50, func() {
		for _, id := range ids { // 16 pages through 4 frames: all misses
			if _, err := view.Fetch(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	d := stats.Snapshot().Sub(before)
	if d.PageFetches != d.LogicalReads || pool.Evictions() == 0 {
		t.Fatalf("cycling loop was not all misses: %+v, %d evictions", d, pool.Evictions())
	}

	before = stats.Snapshot()
	hits := testing.AllocsPerRun(50, func() {
		for _, id := range ids[:4] {
			pool.Touch(id)
			pool.Get(id)
		}
	})
	if d := stats.Snapshot().Sub(before); d.PageFetches > 4 {
		t.Fatalf("resident loop missed %d times", d.PageFetches)
	}
	if misses != 0 || hits != 0 {
		t.Fatalf("allocations per loop: %v with misses, %v with hits; want 0", misses, hits)
	}
}
