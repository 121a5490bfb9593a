// Package eval implements the evaluation metrics of §5.2.3: the
// NDCG-style satisfaction score over ranked query results, its sat-max
// normalization, and mean ± confidence-interval aggregation used by every
// results table.
package eval

import (
	"math"
	"sort"
)

// Sat computes the satisfaction score of a ranked result list E for a
// query with predicates judged by sat(q_i, e_j):
//
//	sat(Q, E) = Σ_j ( Σ_i sat(q_i, e_j) ) / log2(j+1)
//
// where j is the 1-based rank. satFn(predicate index, entity id) must
// return 0 or 1.
func Sat(numPredicates int, ranking []string, satFn func(pred int, entity string) bool) float64 {
	var total float64
	for j, e := range ranking {
		var hit int
		for i := 0; i < numPredicates; i++ {
			if satFn(i, e) {
				hit++
			}
		}
		total += float64(hit) / math.Log2(float64(j)+2)
	}
	return total
}

// SatMax computes sat-max(Q) = max_E sat(Q, E) over all length-k rankings
// of the candidate entities: the best ranking sorts entities by their
// per-entity satisfied-predicate counts descending.
func SatMax(numPredicates int, candidates []string, k int, satFn func(pred int, entity string) bool) float64 {
	counts := make([]int, len(candidates))
	for ci, e := range candidates {
		for i := 0; i < numPredicates; i++ {
			if satFn(i, e) {
				counts[ci]++
			}
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if k > len(counts) {
		k = len(counts)
	}
	var total float64
	for j := 0; j < k; j++ {
		total += float64(counts[j]) / math.Log2(float64(j)+2)
	}
	return total
}

// MeanCI returns the mean of xs and the half-width of its 95% confidence
// interval (normal approximation, as the paper's ± figures use).
func MeanCI(xs []float64) (mean, ci float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / n
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / (n - 1))
	return mean, 1.96 * sd / math.Sqrt(n)
}

// Accuracy returns the fraction of true values in hits.
func Accuracy(hits []bool) float64 {
	if len(hits) == 0 {
		return 0
	}
	c := 0
	for _, h := range hits {
		if h {
			c++
		}
	}
	return float64(c) / float64(len(hits))
}
