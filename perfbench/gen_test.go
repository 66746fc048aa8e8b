package main

import (
	"context"
	"testing"
	"time"
)

// TestOpenLoopNeverDropsAndChargesLag drives one connection with ops
// due every 2ms that each take 10ms: the generator falls behind, but
// every op still runs, in due order, and its latency counts from when
// it was due, not from when it was sent.
func TestOpenLoopNeverDropsAndChargesLag(t *testing.T) {
	const n = 10
	start := time.Now().Add(5 * time.Millisecond)
	var ops []*genOp
	for i := range n {
		ops = append(ops, &genOp{due: start.Add(time.Duration(i) * 2 * time.Millisecond), kind: "x",
			run: func(context.Context) (bool, []*genOp) {
				time.Sleep(10 * time.Millisecond)
				return true, nil
			}})
	}
	recs, err := runOpenLoop(context.Background(), ops, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("%d of %d ops ran", len(recs), n)
	}
	for i, r := range recs {
		if r.Sent.Before(r.Due) {
			t.Errorf("op %d sent %v before it was due", i, r.Due.Sub(r.Sent))
		}
		if r.latency() != r.Done.Sub(r.Due) || r.latency() < r.lag()+10*time.Millisecond {
			t.Errorf("op %d: latency %v does not include lag %v plus service", i, r.latency(), r.lag())
		}
		if i > 0 && r.Due.Before(recs[i-1].Due) {
			t.Errorf("op %d ran out of due order", i)
		}
	}
	// Service (10ms) outpaces arrivals (2ms): op i can start no earlier
	// than i*10ms after the first, so it is at least i*8ms late.
	last := recs[n-1]
	if min := time.Duration(n-1) * 8 * time.Millisecond; last.lag() < min {
		t.Errorf("last op lag %v, want at least %v", last.lag(), min)
	}
}

// TestOpenLoopFollowUps checks that ops scheduled by other ops run and
// that the loop ends once nothing is scheduled or running.
func TestOpenLoopFollowUps(t *testing.T) {
	var chain func(k int) *genOp
	chain = func(k int) *genOp {
		return &genOp{due: time.Now(), kind: "chain", run: func(context.Context) (bool, []*genOp) {
			if k == 0 {
				return true, nil
			}
			return k%2 == 0, []*genOp{chain(k - 1)}
		}}
	}
	recs, err := runOpenLoop(context.Background(), []*genOp{chain(5)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range recs {
		if !r.OK {
			failed++
		}
	}
	if len(recs) != 6 || failed != 3 {
		t.Errorf("ran %d ops with %d failed, want 6 and 3", len(recs), failed)
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	op := &genOp{due: time.Now().Add(time.Hour), run: func(context.Context) (bool, []*genOp) { return true, nil }}
	if _, err := runOpenLoop(ctx, []*genOp{op}, 1); err == nil {
		t.Error("cancelled run returned no error")
	}
}
