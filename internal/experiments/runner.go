package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerroute/internal/core"
)

// budget is the worker budget each pool reads: experiment dispatch
// (RunStream/RunAll) and every in-figure parameter sweep bound their own
// concurrency by it independently, so nested levels can briefly run up to
// budget² goroutines. That oversubscription is deliberate — the work is
// CPU-bound and the scheduler time-slices it; per-run buffers are small —
// and keeps the pools deadlock-free (a shared semaphore held across
// nesting levels could starve inner sweeps). Zero means GOMAXPROCS.
var budget atomic.Int32

// SetParallelism sets the package-wide worker budget (n <= 0 restores the
// default, GOMAXPROCS). The CLI's -parallel flag lands here.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	budget.Store(int32(n))
}

// parallelism returns the configured worker budget.
func parallelism() int {
	if n := int(budget.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0..n-1) on up to parallelism() goroutines. All n calls
// run to completion; the returned error is the lowest-index failure, so
// the error a caller observes does not depend on goroutine scheduling.
func forEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	parallel := parallelism()
	if parallel > n {
		parallel = n
	}
	if parallel == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTasks executes heterogeneous closures concurrently under the package
// worker budget, failing with the lowest-index error.
func runTasks(tasks ...func() error) error {
	return forEach(len(tasks), func(i int) error { return tasks[i]() })
}

// runConfigs executes a sweep of optimizer configurations concurrently and
// returns the outcomes in input order. Concurrent entries that share a
// (horizon, energy) pair dedupe their baseline through the System's
// single-flight cache.
func runConfigs(sys *core.System, cfgs []core.RunConfig) ([]*core.Outcome, error) {
	outs := make([]*core.Outcome, len(cfgs))
	err := forEach(len(cfgs), func(i int) error {
		var err error
		outs[i], err = sys.Run(cfgs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// RunStream executes defs on forEach's bounded worker pool and delivers
// each result to emit in defs order — as soon as it and every predecessor
// have finished, so output streams while later experiments are still
// running. The rendered results are identical to a serial run; only wall
// time changes. A budget of 1 (SetParallelism) runs the experiments one
// after another. On failure the lowest-index error is returned and
// workers stop running new experiments.
func RunStream(env *Env, defs []Definition, emit func(res *Result, took time.Duration) error) error {
	type item struct {
		res  *Result
		took time.Duration
		err  error
	}
	slots := make([]chan item, len(defs))
	for i := range slots {
		slots[i] = make(chan item, 1)
	}
	var stopped atomic.Bool
	go forEach(len(defs), func(i int) error {
		if stopped.Load() {
			// The consumer already returned; fill the slot without doing
			// the work.
			slots[i] <- item{}
			return nil
		}
		start := time.Now()
		res, err := defs[i].Run(env)
		if err != nil {
			err = fmt.Errorf("%s: %w", defs[i].ID, err)
		}
		slots[i] <- item{res: res, took: time.Since(start), err: err}
		return nil
	})
	for _, slot := range slots {
		it := <-slot
		if it.err != nil {
			stopped.Store(true)
			return it.err
		}
		if err := emit(it.res, it.took); err != nil {
			stopped.Store(true)
			return err
		}
	}
	return nil
}

// RunAll executes defs concurrently and returns the results in defs order.
func RunAll(env *Env, defs []Definition) ([]*Result, error) {
	out := make([]*Result, 0, len(defs))
	err := RunStream(env, defs, func(res *Result, _ time.Duration) error {
		out = append(out, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
