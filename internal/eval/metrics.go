// Package eval is the paper's Model Evaluation Module (MEM): classification
// metrics, stratified k-fold cross-validation over multiple runs, the
// scalability experiment (Figs. 5–7), the time-resistance experiment with
// AUT (Fig. 8), and train/inference timing capture.
package eval

import (
	"fmt"
	"sort"
)

// Metrics holds the four headline scores plus the confusion matrix counts.
// The positive class is phishing (label 1), matching the paper.
type Metrics struct {
	Accuracy, Precision, Recall, F1 float64
	TP, FP, TN, FN                  int
}

// Compute derives metrics from predictions against ground truth.
func Compute(pred, truth []int) (Metrics, error) {
	if len(pred) != len(truth) {
		return Metrics{}, fmt.Errorf("eval: %d predictions for %d labels", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return Metrics{}, fmt.Errorf("eval: empty evaluation set")
	}
	var m Metrics
	for i, p := range pred {
		switch {
		case p == 1 && truth[i] == 1:
			m.TP++
		case p == 1 && truth[i] == 0:
			m.FP++
		case p == 0 && truth[i] == 0:
			m.TN++
		default:
			m.FN++
		}
	}
	n := float64(len(pred))
	m.Accuracy = float64(m.TP+m.TN) / n
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m, nil
}

// Mean averages a metric slice field-wise.
func Mean(ms []Metrics) Metrics {
	var out Metrics
	if len(ms) == 0 {
		return out
	}
	for _, m := range ms {
		out.Accuracy += m.Accuracy
		out.Precision += m.Precision
		out.Recall += m.Recall
		out.F1 += m.F1
	}
	n := float64(len(ms))
	out.Accuracy /= n
	out.Precision /= n
	out.Recall /= n
	out.F1 /= n
	return out
}

// AUT is the Area Under Time metric of Pendlebury et al. (TESSERACT):
// the normalized trapezoidal area under a metric curve observed at evenly
// spaced time points, in [0,1]. Higher means more robust over time.
func AUT(series []float64) float64 {
	n := len(series)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return series[0]
	}
	area := 0.0
	for i := 1; i < n; i++ {
		area += (series[i-1] + series[i]) / 2
	}
	return area / float64(n-1)
}

// AUC computes the area under the ROC curve by the rank-sum (Mann-Whitney)
// identity with tie-averaged ranks.
func AUC(scores []float64, labels []int) float64 {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1 // 1-based tie-averaged rank
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	var rankSum float64
	var np, nn int
	for i, l := range labels {
		if l == 1 {
			rankSum += ranks[i]
			np++
		} else {
			nn++
		}
	}
	if np == 0 || nn == 0 {
		return 0.5
	}
	return (rankSum - float64(np)*float64(np+1)/2) / (float64(np) * float64(nn))
}
