package clique

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/rulingset/mprs/internal/mpc"
)

// TestCliqueLateSendIsStale pins the seal contract: a goroutine that leaks
// out of its step and sends afterwards hits the attempt's sealed outbox
// header, never the reused send log. The next Step reports mpc.ErrStaleCtx
// and delivers nothing; the step after that is clean.
func TestCliqueLateSendIsStale(t *testing.T) {
	for _, par := range []int{1, 3} {
		c, err := NewCluster(Config{Parallelism: par}, 6)
		if err != nil {
			t.Fatal(err)
		}
		var leaked *Ctx
		if err := c.Step("leak", func(x *Ctx) {
			if x.Node == 4 {
				leaked = x
			}
		}); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { // the leaked goroutine: sends after its step committed
			defer close(done)
			leaked.Send(0, 42)
		}()
		<-done
		err = c.Step("next", func(x *Ctx) {
			x.Send((x.Node+1)%6, uint64(x.Node))
		})
		if !errors.Is(err, mpc.ErrStaleCtx) {
			t.Fatalf("parallelism %d: late send err = %v, want mpc.ErrStaleCtx", par, err)
		}
		if st := c.Stats(); st.Rounds != 1 || st.Messages != 0 {
			t.Fatalf("parallelism %d: stale step committed: %+v", par, st)
		}
		// The error is one-shot, and the stale payload reached no log: the
		// next round delivers exactly its own ring traffic.
		if err := c.Step("clean", func(x *Ctx) {
			x.Send((x.Node+1)%6, uint64(x.Node))
		}); err != nil {
			t.Fatalf("parallelism %d: step after stale-send report: %v", par, err)
		}
		for v := 0; v < 6; v++ {
			want := []Message{{Src: (v + 5) % 6, Payload: []uint64{uint64((v + 5) % 6)}}}
			if got := c.Drain(v); !reflect.DeepEqual(got, want) {
				t.Fatalf("parallelism %d: node %d inbox %v, want %v", par, v, got, want)
			}
		}
	}
}

// TestCliqueJoinedSenderGoroutinesStaySorted exercises the documented
// escape hatch: a step closure may spawn sender goroutines as long as it
// joins them before returning. Here the joined goroutines of the first node
// of each block send on behalf of every node of that block, so a worker's
// log interleaves senders in scheduling order. Each box must still arrive
// sorted by src with every sender's own send order kept.
func TestCliqueJoinedSenderGoroutinesStaySorted(t *testing.T) {
	const n, par, k = 12, 3, 3
	c, err := NewCluster(Config{Parallelism: par}, n)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes run in order within a block, so the block's last node sees every
	// context of its block and sends on behalf of all of them.
	const per = n / par
	ctxs := make([]*Ctx, n)
	if err := c.Step("spawned", func(x *Ctx) {
		ctxs[x.Node] = x
		if x.Node%per != per-1 {
			return
		}
		var wg sync.WaitGroup
		for _, y := range ctxs[x.Node+1-per : x.Node+1] {
			wg.Add(1)
			go func(y *Ctx) {
				defer wg.Done()
				for s := 0; s < k; s++ {
					for dst := 0; dst < n; dst++ {
						y.Send(dst, uint64(y.Node), uint64(s))
					}
				}
			}(y)
		}
		wg.Wait()
	}); err != nil {
		t.Fatal(err)
	}
	for dst := 0; dst < n; dst++ {
		box := c.Drain(dst)
		if len(box) != n*k {
			t.Fatalf("node %d received %d messages, want %d", dst, len(box), n*k)
		}
		for i, msg := range box {
			if wantSrc, wantSeq := i/k, uint64(i%k); msg.Src != wantSrc || msg.Payload[0] != uint64(wantSrc) || msg.Payload[1] != wantSeq {
				t.Fatalf("node %d position %d: src=%d payload=%v, want src=%d seq=%d",
					dst, i, msg.Src, msg.Payload, wantSrc, wantSeq)
			}
		}
	}
}

// TestCliqueDuplicateSrcFanIn: every node sends several separate messages
// to one destination in one step, so the box holds runs of equal Src
// values. The delivered inbox orders them by src, then send sequence, and
// identically at every parallelism level.
func TestCliqueDuplicateSrcFanIn(t *testing.T) {
	const n, k = 7, 4
	run := func(parallelism int) []Message {
		c, err := NewCluster(Config{Parallelism: parallelism}, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RouteStep("fanin", func(x *Ctx) {
			for s := 0; s < k; s++ {
				// Distinct payloads encode (src, send sequence) so ordering
				// violations are visible, not just miscounts.
				x.Send(0, uint64(x.Node), uint64(s))
			}
		}); err != nil {
			t.Fatal(err)
		}
		var got []Message
		if err := c.Step("inspect", func(x *Ctx) {
			if x.Node == 0 {
				got = append([]Message(nil), x.Inbox()...)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial := run(1)
	if len(serial) != n*k {
		t.Fatalf("node 0 received %d messages, want %d", len(serial), n*k)
	}
	for i, msg := range serial {
		if wantSrc, wantSeq := i/k, uint64(i%k); msg.Src != wantSrc || msg.Payload[1] != wantSeq {
			t.Fatalf("position %d: got src=%d seq=%d, want src=%d seq=%d",
				i, msg.Src, msg.Payload[1], wantSrc, wantSeq)
		}
	}
	for _, p := range []int{2, 3, n, n + 3} {
		if got := run(p); !reflect.DeepEqual(got, serial) {
			t.Errorf("parallelism %d delivery order diverges from serial:\n got %v\nwant %v", p, got, serial)
		}
	}
}

// TestCliqueSendOutsideCliqueIsMachineError: a send to a node that does not
// exist panics inside the closure, and the step reports it as that node's
// *mpc.MachineError without committing the round.
func TestCliqueSendOutsideCliqueIsMachineError(t *testing.T) {
	for _, par := range []int{1, 2} {
		c, err := NewCluster(Config{Parallelism: par}, 4)
		if err != nil {
			t.Fatal(err)
		}
		err = c.Step("bad", func(x *Ctx) {
			if x.Node == 2 {
				x.Send(4, 1)
			}
		})
		var me *mpc.MachineError
		if !errors.As(err, &me) || me.Machine != 2 {
			t.Fatalf("parallelism %d: err = %v, want node 2's *mpc.MachineError", par, err)
		}
		if c.Stats().Rounds != 0 {
			t.Fatalf("parallelism %d: failed step committed", par)
		}
	}
}

// TestCliqueStepAllocsIndependentOfMessages pins "no per-message
// allocation": once the send logs are warm, a step whose nodes each send k
// single-word messages allocates the same number of objects for k = 1 and
// k = 256.
func TestCliqueStepAllocsIndependentOfMessages(t *testing.T) {
	const n = 512
	for _, par := range []int{1, 2} {
		allocs := func(k int) float64 {
			c, err := NewCluster(Config{Parallelism: par}, n)
			if err != nil {
				t.Fatal(err)
			}
			step := func(x *Ctx) {
				for i := 1; i <= k; i++ {
					x.Send((x.Node+i)%n, uint64(i))
				}
			}
			return testing.AllocsPerRun(20, func() {
				if err := c.Step("warm", step); err != nil {
					t.Fatal(err)
				}
			})
		}
		one, many := allocs(1), allocs(256)
		if one != many {
			t.Errorf("parallelism %d: warm step allocates %v objects at 1 message per node, %v at 256", par, one, many)
		}
		t.Logf("parallelism %d: %v allocations per warm step", par, one)
	}
}
