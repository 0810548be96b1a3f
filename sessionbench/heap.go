package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// heapWatch tracks the peak of the heap the collector finds live over a
// session. Unlike the resident set, whose peak depends on how far the heap
// outgrew its live data before a collection happened to run, the live heap
// at each collection is a property of the program's data, so it repeats
// from run to run.
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

// heapPollInterval is how often the watcher reads the live-heap figure of
// the latest collection.
const heapPollInterval = 5 * time.Millisecond

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(heapPollInterval)
		defer tick.Stop()
		for {
			w.peak = max(w.peak, readLiveHeap())
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// finish forces a collection with the session's state still held — twice,
// so the second finds nothing the sync.Pools kept — stops the watcher and
// returns the peak in bytes.
func (w *heapWatch) finish() uint64 {
	close(w.stop)
	<-w.done
	runtime.GC()
	runtime.GC()
	return max(w.peak, readLiveHeap())
}

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
