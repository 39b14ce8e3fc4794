package experiments

import "sync"

// inParallel runs independent measurement closures concurrently — one
// goroutine each; every closure owns its store, generator and host,
// so no state is shared — and returns the first error in argument order.
// Because each simulated host is deterministic in isolation, results are
// identical to running the closures sequentially.
func inParallel(fns ...func() error) error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func(i int, fn func() error) {
			defer wg.Done()
			errs[i] = fn()
		}(i, fn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
