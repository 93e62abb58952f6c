package rpc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

func TestFanOutRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		var hits [100]int32
		dispatched, err := FanOut(context.Background(), workers, len(hits), func(_ context.Context, i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		if err != nil || dispatched != len(hits) {
			t.Fatalf("workers=%d: dispatched=%d err=%v", workers, dispatched, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestFanOutEmpty(t *testing.T) {
	dispatched, err := FanOut(context.Background(), 4, 0, func(context.Context, int) {
		t.Fatal("fn called for n=0")
	})
	if dispatched != 0 || err != nil {
		t.Fatalf("dispatched=%d err=%v", dispatched, err)
	}
}

func TestFanOutCancelledBeforeDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		dispatched, err := FanOut(ctx, workers, 10, func(context.Context, int) {
			t.Fatal("fn called after cancellation")
		})
		if dispatched != 0 || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: dispatched=%d err=%v", workers, dispatched, err)
		}
	}
}

// countdownCtx cancels after a fixed number of Err checks, giving the tests
// a deterministic mid-round cancellation point. Only the dispatching
// goroutine consults it (workers poll a derived context), so no locking is
// needed even for workers > 1.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func TestFanOutCancelledMidDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx := &countdownCtx{Context: context.Background(), remaining: 5}
		var ran int32
		dispatched, err := FanOut(ctx, workers, 10, func(_ context.Context, i int) {
			if i >= 5 {
				t.Errorf("index %d dispatched past the cancellation point", i)
			}
			atomic.AddInt32(&ran, 1)
		})
		if dispatched != 5 || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: dispatched=%d err=%v", workers, dispatched, err)
		}
		// Every dispatched index completes before FanOut returns: the
		// dispatched set is always the prefix [0, dispatched).
		if ran != 5 {
			t.Fatalf("workers=%d: ran=%d, want 5", workers, ran)
		}
	}
}

func TestFanOutWorkerCtxPropagatesRealCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sawDone := make(chan struct{})
	done, err := FanOut(ctx, 4, 4, func(wctx context.Context, i int) {
		if i == 0 {
			cancel()
			<-wctx.Done() // the derived context must observe the cancel
			close(sawDone)
		}
	})
	<-sawDone
	if done > 4 || err == nil && done == 4 {
		// Cancellation raced dispatch; both a full and a partial round are
		// legal — the invariant under test is only Done propagation.
		_ = done
	}
	_ = err
}

func TestHostsQueriedParallelAccounting(t *testing.T) {
	cost := DefaultCostModel()
	servers := make([]string, 96)
	recs := make([]int, 96)
	for i := range servers {
		servers[i] = fmt.Sprintf("h%d", i)
		recs[i] = i // max exec at the last server
	}
	maxExec := cost.QueryExec + 95*cost.QueryPerRecord

	seq := NewClock(cost, 0)
	seq.HostsQueried("q", servers, recs)
	wantSeq := 96*cost.ConnInit + cost.RTT + maxExec
	if seq.Total() != wantSeq {
		t.Fatalf("sequential: %v, want %v", seq.Total(), wantSeq)
	}

	par := NewClock(cost, 0)
	par.HostsQueriedParallel("q", servers, recs)
	wantPar := cost.ConnInit + cost.RTT + maxExec
	if par.Total() != wantPar {
		t.Fatalf("parallel: %v, want %v", par.Total(), wantPar)
	}

	// The Parallel flag reroutes HostsQueried, and with pooling a repeat
	// round to connected servers skips ConnInit entirely.
	cost.Parallel = true
	cost.Pooled = true
	pp := NewClock(cost, 0)
	pp.HostsQueried("q", servers, recs)
	if got := pp.Total(); got != wantPar {
		t.Fatalf("pooled+parallel first round: %v, want %v", got, wantPar)
	}
	pp.HostsQueried("q", servers, recs)
	if got := pp.Total() - wantPar; got != cost.RTT+maxExec {
		t.Fatalf("pooled+parallel repeat round: %v, want %v", got, cost.RTT+maxExec)
	}
}

// TestHostRoundsConcurrent drives the pooled HTTP client's round path
// against live test daemons, one round per daemon sent concurrently over
// the FanOut pool: every daemon's hosts answer, a failing daemon fails only
// its own round, and each round's answers come back in host order.
func TestHostRoundsConcurrent(t *testing.T) {
	const n = 8
	roots := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 3 {
				http.Error(w, "down", http.StatusInternalServerError)
				return
			}
			body, ok := ReadBody(w, r, maxRequestBody)
			if !ok {
				return
			}
			req, err := decodeRoundRequest(body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			// Each host answers one flow whose byte count names its
			// daemon and its IP.
			resp := RoundResponse[[]hostagent.FlowBytes]{}
			for _, ip := range req.Hosts {
				resp.Answers = append(resp.Answers, []hostagent.FlowBytes{{Bytes: uint64(i)<<32 | uint64(ip)}})
			}
			w.Write(topkKind.appendResponse(nil, resp)) //nolint:errcheck
		}))
		defer srv.Close()
		roots[i] = srv.URL
	}
	client := NewPooledHTTPClient()
	defer client.CloseIdleConnections()

	hosts := []netsim.IPv4{netsim.IP(10, 0, 0, 3), netsim.IP(10, 0, 0, 1), netsim.IP(10, 0, 0, 2)}
	answers := make([][][]hostagent.FlowBytes, n)
	errs := make([]error, n)
	dispatched, err := FanOut(context.Background(), 4, n, func(ctx context.Context, i int) {
		answers[i], errs[i] = client.TopKRound(ctx, roots[i], hosts, 1, 1)
	})
	if err != nil || dispatched != n {
		t.Fatalf("dispatched %d of %d: %v", dispatched, n, err)
	}
	for i := range answers {
		if i == 3 {
			if errs[i] == nil {
				t.Fatal("down daemon should error")
			}
			continue
		}
		if errs[i] != nil || len(answers[i]) != len(hosts) {
			t.Fatalf("daemon %d: %d answers, err=%v", i, len(answers[i]), errs[i])
		}
		for j, ip := range hosts {
			if got, want := answers[i][j][0].Bytes, uint64(i)<<32|uint64(ip); got != want {
				t.Fatalf("daemon %d host %d answered %x, want %x (out of order)", i, j, got, want)
			}
		}
	}
}

// TestPerHostTimeout asserts a dead daemon is bounded by PerHostTimeout
// rather than hanging the round.
func TestPerHostTimeout(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer srv.Close()
	defer close(stall)

	client := NewPooledHTTPClient()
	client.PerHostTimeout = 50 * time.Millisecond
	defer client.CloseIdleConnections()
	start := time.Now()
	if _, err := client.TopKRound(context.Background(), srv.URL, []netsim.IPv4{netsim.IP(10, 0, 0, 1)}, 1, 1); err == nil {
		t.Fatal("stalled daemon should time out")
	}
	if _, _, err := client.PullPointers(context.Background(), srv.URL, simtime.EpochRange{}); err == nil {
		t.Fatal("stalled switch should time out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("two timed-out requests took %v", elapsed)
	}
}
