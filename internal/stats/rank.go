package stats

import "sort"

// Ranks assigns midranks (1-based) to xs: equal values share the average
// of the ranks they would occupy. The result has the same ordering as xs.
// Midranks are the standard tie treatment for rank tests (Siegel &
// Castellan 1998) and keep the tests well-defined on KPI series that are
// quantized by counter resolution.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Values idx[i..j] are tied; they occupy ranks i+1..j+1.
		mid := float64(i+j+2) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		i = j + 1
	}
	return ranks
}

// TieCorrection returns the tie-correction term Σ(t³−t) over tie groups in
// the pooled sample, used in the variance of the Mann–Whitney U statistic.
func TieCorrection(pooled []float64) float64 {
	tmp := make([]float64, len(pooled))
	copy(tmp, pooled)
	sort.Float64s(tmp)
	var corr float64
	for i := 0; i < len(tmp); {
		j := i
		for j+1 < len(tmp) && tmp[j+1] == tmp[i] {
			j++
		}
		t := float64(j - i + 1)
		corr += t*t*t - t
		i = j + 1
	}
	return corr
}
