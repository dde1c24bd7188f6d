// Package goroutinedisc is a source-check fixture for the
// goroutine-discipline check.
package goroutinedisc

import "sync"

type msg struct{}

func work(msg) {}

// Bad: fire-and-forget loop, nothing can ever prove it exits.
func leakLoop(in []msg) {
	go func() { // want "no lifecycle discipline"
		for _, m := range in {
			work(m)
		}
	}()
}

// Bad: spawns per item with no completion signal.
func leakPerItem() {
	for i := 0; i < 4; i++ {
		go func(i int) { // want "no lifecycle discipline"
			_ = i * i
		}(i)
	}
}

// Good: WaitGroup registration.
func waited(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		work(msg{})
	}()
}

// Good: ranges over a channel, terminates when upstream closes it.
func channelWorker(in chan msg) {
	go func() {
		for m := range in {
			work(m)
		}
	}()
}

// Good: closes its output when done (completion signal).
func closer(out chan msg) {
	go func() {
		out <- msg{}
		close(out)
	}()
}

// Good: watches a done channel.
func stoppable(done chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				work(msg{})
			}
		}
	}()
}
