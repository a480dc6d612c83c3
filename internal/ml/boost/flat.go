package boost

import (
	"runtime"
	"sync"

	"github.com/phishinghook/phishinghook/internal/ml/ensemble"
)

// pack builds the shared inference layout from the per-tree form (see
// internal/ml/ensemble).
func pack(trees []regTree) (*ensemble.Layout, error) {
	sizes := make([]int, len(trees))
	for k := range trees {
		sizes[k] = len(trees[k].nodes)
	}
	return ensemble.Pack(sizes, func(k, i int) ensemble.Node {
		return ensemble.Node(trees[k].nodes[i])
	})
}

// parallelFor runs fn(i) for i in [0,n) across GOMAXPROCS goroutines,
// falling back to the plain loop for small n where spawn cost dominates.
func parallelFor(n int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 512 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
