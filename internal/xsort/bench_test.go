package xsort

import (
	"fmt"
	"math/rand"
	"testing"

	"systemr/internal/storage"
	"systemr/internal/value"
)

// BenchmarkSort sorts 100k three-column rows through a 256-page pool (a few
// runs, one final merge) and reports ns per row: on an INTEGER key with
// many duplicates, on a VARCHAR key, and on two keys, the second DESC.
func BenchmarkSort(b *testing.B) {
	const n = 100000
	rnd := rand.New(rand.NewSource(1))
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(rnd.Intn(n / 10))),
			value.NewString(fmt.Sprintf("name-%08x", rnd.Uint32())),
			value.NewInt(int64(i)),
		}
	}
	for _, bc := range []struct {
		name string
		keys []int
		desc []bool
	}{
		{"int", []int{0}, nil},
		{"varchar", []int{1}, nil},
		{"int_varchar_desc", []int{0, 1}, []bool{false, true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh disk per sort: temp pages stay on the disk they
				// were written to.
				b.StopTimer()
				disk := storage.NewDisk()
				cfg := Config{Pool: storage.NewBufferPool(disk, 256, &storage.IOStats{}), Disk: disk, Keys: bc.keys, Desc: bc.desc}
				b.StartTimer()
				res, err := Sort(cfg, sliceInput(rows))
				if err != nil {
					b.Fatal(err)
				}
				for {
					_, ok, err := res.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
				}
				res.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
