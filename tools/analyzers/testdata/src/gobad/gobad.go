// Package gobad is the negative fixture for the nogoroutine analyzer: it
// declares the engine tier, so every concurrency construct below must be
// reported.
//
//hsw:tier engine
package gobad

import "sync"

var mu sync.Mutex

var ch = make(chan int, 1)

// Bad exercises every reportable construct.
func Bad() int {
	go func() {
		ch <- 1
	}()
	mu.Lock()
	defer mu.Unlock()
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}
