package workload

// A zipfian-skew workload: the dataset Table 1's uniformity assumption gets
// maximally wrong. One EVENTS relation holds Rows tuples whose KEY column is
// drawn from a Zipf distribution — the hottest key covers a double-digit
// percentage of the table while the cold tail is near-unique — so the
// uniform 1/ICARD equality estimate misses the hot key by orders of
// magnitude, and with it the index-vs-segment-scan decision.

import (
	"fmt"
	"math/rand"
	"strings"

	"systemr"
)

// SkewConfig scales the zipfian EVENTS table.
type SkewConfig struct {
	Rows int     // total tuples (default 100000)
	Keys int     // distinct KEY values drawn from (default 1000)
	S    float64 // Zipf exponent > 1 (default 1.3)
	Seed int64
	// Engine is the database's configuration, used as given.
	Engine systemr.Config
}

func (c SkewConfig) withDefaults() SkewConfig {
	if c.Rows == 0 {
		c.Rows = 100000
	}
	if c.Keys == 0 {
		c.Keys = 1000
	}
	if c.S == 0 {
		c.S = 1.3
	}
	return c
}

// skewInsertBatch bounds the rows per multi-row INSERT while loading.
const skewInsertBatch = 500

// NewSkewDB creates and loads the zipfian database:
//
//	EVENTS (ID INTEGER, KEY INTEGER, VAL INTEGER)  indexes: EVENTS_ID (unique), EVENTS_KEY
//
// It returns the database and the hottest KEY value — the point where the
// uniform model's estimate is furthest from the truth.
func NewSkewDB(cfg SkewConfig) (*systemr.DB, int64) {
	cfg = cfg.withDefaults()
	rnd := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rnd, cfg.S, 1, uint64(cfg.Keys-1))
	db := systemr.Open(cfg.Engine)

	db.MustExec("CREATE TABLE EVENTS (ID INTEGER, KEY INTEGER, VAL INTEGER)")

	counts := make(map[int64]int, cfg.Keys)
	var batch strings.Builder
	n := 0
	flush := func() {
		if n > 0 {
			db.MustExec("INSERT INTO EVENTS VALUES " + batch.String())
			batch.Reset()
			n = 0
		}
	}
	for i := 0; i < cfg.Rows; i++ {
		key := int64(zipf.Uint64())
		counts[key]++
		if n > 0 {
			batch.WriteString(", ")
		}
		fmt.Fprintf(&batch, "(%d, %d, %d)", i, key, rnd.Intn(1000))
		if n++; n == skewInsertBatch {
			flush()
		}
	}
	flush()

	db.MustExec("CREATE UNIQUE INDEX EVENTS_ID ON EVENTS (ID)")
	db.MustExec("CREATE INDEX EVENTS_KEY ON EVENTS (KEY)")
	db.MustExec("UPDATE STATISTICS")

	hot, hotCount := int64(0), 0
	for k, c := range counts {
		if c > hotCount || (c == hotCount && k < hot) {
			hot, hotCount = k, c
		}
	}
	return db, hot
}
