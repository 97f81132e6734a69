package core

// Selectivity classes: a cheap form of parametric query optimization
// (Ioannidis, Ng, Shim and Sellis, VLDB 1992). A plan compiled for a lifted
// text is reused for other values of its literals only while every boolean
// factor that reads one keeps its selectivity within the same half power of
// two. A hot key and a cold key then keep distinct plans, while sibling
// literals of similar selectivity share one. Whole powers of two are too
// coarse: on a zipfian key, the second and third hottest keys (F = 0.116
// and 0.068) share the class [1/16, 1/8) yet take different plans — a
// segment scan and an index scan.

import (
	"math"

	"systemr/internal/sem"
	"systemr/internal/value"
)

// A Classifier maps the literal values of a lifted statement to its class
// signature. It holds the analyzed block, whose tables' statistics it reads
// when called: call it under the shared catalog lock, after checking that
// the catalog version is the one the block was analyzed under.
type Classifier struct {
	cfg     Config
	blk     *sem.Block
	factors []sem.Expr // the outermost block's factors that read a lifted literal
}

// NewClassifier returns blk's classifier under the optimizer configuration
// cfg, which decides whether histograms are consulted.
func NewClassifier(cfg Config, blk *sem.Block) *Classifier {
	c := &Classifier{cfg: cfg.withDefaults(), blk: blk}
	for _, f := range blk.Factors {
		if f.Lifted {
			c.factors = append(c.factors, f.Expr)
		}
	}
	return c
}

// Signature returns one byte per boolean factor that reads a lifted
// literal: the class ⌊2·log2 F⌋ of the factor's selectivity F when the
// literals are lits. F comes from the estimators the dynamic program uses —
// the histogram, then index statistics, then Table 1 — so two statements
// with equal signatures were costed within a factor of √2 per predicate.
// F = 0 has a class of its own.
func (c *Classifier) Signature(lits []value.Value) string {
	if len(c.factors) == 0 {
		return ""
	}
	o := Optimizer{cfg: c.cfg, blk: c.blk, lits: lits}
	sig := make([]byte, len(c.factors))
	for i, e := range c.factors {
		sig[i] = selClass(o.selectivity(e))
	}
	return string(sig)
}

// selClass encodes ⌊2·log2 f⌋ for f in (0, 1] as 1 - ⌊2·log2 f⌋, capped
// at 255; f = 0 is class 0.
func selClass(f float64) byte {
	if f <= 0 {
		return 0
	}
	return byte(min(-math.Floor(2*math.Log2(f)), 254) + 1)
}
