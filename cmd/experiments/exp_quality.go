package main

// E8 — the conclusion's central claim: "although the costs predicted by the
// optimizer are often not accurate in absolute value, the true optimal path
// is selected in a large majority of cases. In many cases, the ordering
// among the estimated costs for all paths considered is precisely the same
// as that among the actual measured costs."
//
// Method: for each query of a battery, build one plan per optimizer
// configuration (the default plus every ablation and the naive baseline),
// execute each plan cold, and compare (a) whether the default plan's
// measured cost is the minimum, and (b) the rank agreement between estimated
// and measured costs.

import (
	"fmt"
	"sort"

	"systemr"
	"systemr/internal/core"
	"systemr/internal/plan"
	"systemr/internal/workload"
)

type variantPlan struct {
	name string
	est  float64
	meas float64
}

func qualityVariants(db *systemr.DB) map[string]core.Config {
	base := db.OptimizerConfig()
	mk := func(f func(*core.Config)) core.Config {
		c := base
		f(&c)
		return c
	}
	return map[string]core.Config{
		"chosen":    base,
		"nlonly":    mk(func(c *core.Config) { c.Joins = core.NestedLoopsOnly }),
		"mergeonly": mk(func(c *core.Config) { c.Joins = core.MergeOnly }),
		"nosargs":   mk(func(c *core.Config) { c.DisableSargs = true }),
		"noorders":  mk(func(c *core.Config) { c.DisableInterestingOrders = true }),
	}
}

// qualityQueries is the evaluation battery: the shapes the paper's sections
// discuss, at sizes where plan choice matters.
var qualityQueries = []string{
	"SELECT NAME FROM EMP WHERE EMPNO = 123",
	"SELECT NAME FROM EMP WHERE DNO = 7",
	"SELECT NAME FROM EMP WHERE SAL > 45000",
	"SELECT NAME FROM EMP WHERE SAL > 45000 AND JOB = 3",
	"SELECT NAME FROM EMP WHERE DNO BETWEEN 3 AND 5 ORDER BY DNO",
	"SELECT NAME FROM EMP ORDER BY DNO",
	"SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND LOC = 'DENVER'",
	"SELECT NAME, TITLE FROM EMP, JOB WHERE EMP.JOB = JOB.JOB AND TITLE = 'CLERK'",
	workload.Figure1Query,
	"SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO",
	"SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'DENVER') AND SAL > 30000",
	"SELECT E.NAME FROM EMP E, EMP M WHERE E.MANAGER = M.EMPNO AND M.JOB = 1",
}

func expQuality() {
	db := workload.NewEmpDB(workload.EmpConfig{Emps: 3000, Depts: 60, Jobs: 12, Seed: 19})
	w := core.DefaultW

	optimalPicked := 0
	total := 0
	var rankAgreements []float64

	header(fmt.Sprintf("%-34s", "query (truncated)"), "chosen meas", "best meas", "best variant", "opt?", "rank-corr")
	for _, query := range qualityQueries {
		var variants []variantPlan
		for name, cfg := range qualityVariants(db) {
			q, _, err := planWith(db, cfg, query)
			if err != nil {
				continue
			}
			stats, err := measurePlanned(db, q)
			if err != nil {
				continue
			}
			variants = append(variants, variantPlan{
				name: name,
				est:  planCost(q, w),
				meas: stats.Cost(w),
			})
		}
		sort.Slice(variants, func(i, j int) bool { return variants[i].name < variants[j].name })
		var chosen, best *variantPlan
		for i := range variants {
			v := &variants[i]
			if v.name == "chosen" {
				chosen = v
			}
			if best == nil || v.meas < best.meas {
				best = v
			}
		}
		if chosen == nil || best == nil {
			continue
		}
		total++
		// "Optimal" within 5% — ties between equivalent plans count.
		isOpt := chosen.meas <= best.meas*1.05
		if isOpt {
			optimalPicked++
		}
		corr := spearman(variants)
		rankAgreements = append(rankAgreements, corr)

		qshort := query
		if len(qshort) > 34 {
			qshort = qshort[:31] + "..."
		}
		mark := "no"
		if isOpt {
			mark = "YES"
		}
		fmt.Printf("%-34s | %11.1f | %9.1f | %-12s | %-4s | %9.2f\n",
			qshort, chosen.meas, best.meas, best.name, mark, corr)
	}
	avg := 0.0
	for _, c := range rankAgreements {
		avg += c
	}
	if len(rankAgreements) > 0 {
		avg /= float64(len(rankAgreements))
	}
	fmt.Printf("\nOptimizer picked the measured-cheapest plan (within 5%%) on %d/%d queries (%.0f%%).\n",
		optimalPicked, total, 100*float64(optimalPicked)/float64(total))
	fmt.Printf("Mean Spearman rank correlation between estimated and measured costs: %.2f\n", avg)
	fmt.Println("(Paper: \"the true optimal path is selected in a large majority of cases\";")
	fmt.Println(" \"the ordering among the estimated costs ... is precisely the same as that")
	fmt.Println(" among the actual measured costs\" in many cases.)")
}

// planCost is the optimizer's estimated weighted cost for the whole plan.
func planCost(q *plan.Query, w float64) float64 {
	return q.Root.Est().Cost.Total(w)
}

// spearman computes the rank correlation between estimated and measured
// costs across plan variants.
func spearman(vs []variantPlan) float64 {
	n := len(vs)
	if n < 2 {
		return 1
	}
	rank := func(key func(variantPlan) float64) []float64 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return key(vs[idx[a]]) < key(vs[idx[b]]) })
		r := make([]float64, n)
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	re := rank(func(v variantPlan) float64 { return v.est })
	rm := rank(func(v variantPlan) float64 { return v.meas })
	var d2 float64
	for i := 0; i < n; i++ {
		d := re[i] - rm[i]
		d2 += d * d
	}
	return 1 - 6*d2/float64(n*(n*n-1))
}
