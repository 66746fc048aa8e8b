package main

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// genOp is one scheduled request of the open-loop generator. run
// performs it and returns whether it succeeded and any follow-up ops
// (with their due times) it schedules.
type genOp struct {
	due  time.Time
	kind string
	run  func(ctx context.Context) (ok bool, next []*genOp)
	seq  int
}

// opRecord is one executed op: when it was due, when a connection
// took it, and when its response was complete.
type opRecord struct {
	Kind            string
	Due, Sent, Done time.Time
	OK              bool
}

// lag is how late the generator sent the op.
func (r opRecord) lag() time.Duration { return r.Sent.Sub(r.Due) }

// latency is the op's time from when it was due, so a stall that
// delays later sends is charged to them.
func (r opRecord) latency() time.Duration { return r.Done.Sub(r.Due) }

type opHeap []*genOp

func (h opHeap) Len() int { return len(h) }
func (h opHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h opHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)   { *h = append(*h, x.(*genOp)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// runOpenLoop executes ops on their schedule over at most conns
// concurrent connections. An op is handed to a connection as soon as
// it is due and one is free; when every connection is busy, due ops
// wait in due order and their lag grows — none is ever dropped. It
// returns when no op is scheduled or running, or when ctx ends.
func runOpenLoop(ctx context.Context, ops []*genOp, conns int) ([]opRecord, error) {
	var (
		mu       sync.Mutex
		h        opHeap
		seq      int
		inflight int
		records  []opRecord
		wg       sync.WaitGroup
	)
	wake := make(chan struct{}, 1)
	notify := func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	push := func(o *genOp) {
		seq++
		o.seq = seq
		heap.Push(&h, o)
	}
	for _, o := range ops {
		push(o)
	}

	work := make(chan *genOp)
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				sent := time.Now()
				ok, next := o.run(ctx)
				rec := opRecord{Kind: o.kind, Due: o.due, Sent: sent, Done: time.Now(), OK: ok}
				mu.Lock()
				records = append(records, rec)
				for _, n := range next {
					push(n)
				}
				inflight--
				mu.Unlock()
				notify()
			}
		}()
	}
	var err error
	timer := time.NewTimer(time.Hour)
	timer.Stop()
loop:
	for {
		mu.Lock()
		if h.Len() == 0 && inflight == 0 {
			mu.Unlock()
			break
		}
		wait := time.Hour
		if h.Len() > 0 {
			wait = time.Until(h[0].due)
		}
		if wait <= 0 {
			o := heap.Pop(&h).(*genOp)
			inflight++
			mu.Unlock()
			select {
			case work <- o:
			case <-ctx.Done():
				err = ctx.Err()
				break loop
			}
			continue
		}
		mu.Unlock()
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-wake:
			if !timer.Stop() {
				<-timer.C
			}
		case <-ctx.Done():
			timer.Stop()
			err = ctx.Err()
			break loop
		}
	}
	close(work)
	wg.Wait()
	return records, err
}
