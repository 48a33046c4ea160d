package transport

import (
	"encoding/hex"
	"errors"
	"io"
	"sync"
	"testing"

	"github.com/rulingset/mprs/internal/mpc"
)

// testBoxes builds a deterministic per-destination message layout over total
// machines, the same on every "worker" — the replicated-execution invariant.
func testBoxes(total, round int) [][]mpc.Message {
	boxes := make([][]mpc.Message, total)
	for dst := 0; dst < total; dst++ {
		for src := 0; src < total; src++ {
			if (src+dst+round)%3 == 0 {
				boxes[dst] = append(boxes[dst], mpc.Message{
					Src:     src,
					Payload: []uint64{uint64(round), uint64(src)<<32 | uint64(dst)},
				})
			}
		}
	}
	return boxes
}

func TestEncodeVerifyRoundtrip(t *testing.T) {
	const total, workers = 10, 3
	boxes := testBoxes(total, 1)
	for w := 0; w < workers; w++ {
		owns := func(src int) bool { return OwnerOf(src, total, workers) == w }
		payload := encodeOwned(boxes, owns)
		if err := verifyOwned(boxes, owns, payload); err != nil {
			t.Fatalf("worker %d: self-verify: %v", w, err)
		}
	}
}

func TestVerifyDetectsDivergence(t *testing.T) {
	const total, workers = 8, 2
	owns := func(src int) bool { return OwnerOf(src, total, workers) == 0 }
	payload := encodeOwned(testBoxes(total, 2), owns)

	// A replica whose local state diverged by a single payload word must be
	// caught by the word-for-word comparison.
	mutated := testBoxes(total, 2)
	for dst := range mutated {
		for i := range mutated[dst] {
			if owns(mutated[dst][i].Src) {
				mutated[dst][i].Payload[0] ^= 1
				if err := verifyOwned(mutated, owns, payload); !errors.Is(err, ErrDiverged) {
					t.Fatalf("mutated word not caught: %v", err)
				}
				return
			}
		}
	}
	t.Fatal("no owned message to mutate")
}

func TestVerifyRejectsMalformedPayload(t *testing.T) {
	const total, workers = 6, 2
	boxes := testBoxes(total, 3)
	owns := func(src int) bool { return OwnerOf(src, total, workers) == 0 }
	payload := encodeOwned(boxes, owns)
	// Truncations decode-fail or verify-fail; either way an error, no panic.
	for cut := 0; cut < len(payload); cut++ {
		if err := verifyOwned(boxes, owns, payload[:cut]); err == nil {
			t.Fatalf("truncated payload at %d accepted", cut)
		}
	}
	// Trailing garbage is an error too.
	if err := verifyOwned(boxes, owns, append(append([]byte(nil), payload...), 0x01)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// goldenBoxes is a fixed layout over 4 machines, split between 2 workers
// (machines 0-1 and 2-3): an empty box, empty and nil payloads, a
// full-width word, varint-sized payload words and a box holding only one
// worker's messages.
func goldenBoxes() [][]mpc.Message {
	return [][]mpc.Message{
		{{Src: 0, Payload: []uint64{1, 2}}, {Src: 1, Payload: nil}, {Src: 2, Payload: []uint64{0xdeadbeefcafef00d}}, {Src: 3, Payload: []uint64{7}}},
		nil,
		{{Src: 1, Payload: []uint64{}}, {Src: 3, Payload: []uint64{1 << 63, 300}}},
		{{Src: 2, Payload: []uint64{5}}},
		{{Src: 0, Payload: []uint64{}}, {Src: 0, Payload: []uint64{0xff}}},
	}
}

// goldenFrames are goldenBoxes encoded for workers 0 and 1. The bytes are the
// wire format: a change here breaks every mixed-version worker group.
var goldenFrames = []string{
	"0502000201000000000000000200000000000000010000010100000200000001ff00000000000000",
	"050202010df0fecaefbeadde030107000000000000000001030200000000000000802c01000000000000010201050000000000000000",
}

func TestEncodeOwnedGolden(t *testing.T) {
	const total, workers = 4, 2
	boxes := goldenBoxes()
	for w, want := range goldenFrames {
		owns := func(src int) bool { return OwnerOf(src, total, workers) == w }
		payload := encodeOwned(boxes, owns)
		if got := hex.EncodeToString(payload); got != want {
			t.Fatalf("worker %d frame:\n got %s\nwant %s", w, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { encodeOwned(boxes, owns) }); allocs != 1 {
			t.Errorf("worker %d: encodeOwned allocates %v objects per frame, want 1", w, allocs)
		}
		if err := verifyOwned(boxes, owns, payload); err != nil {
			t.Fatalf("worker %d: golden frame rejected: %v", w, err)
		}
		// Flip one word of the first owned non-empty payload: the replica
		// no longer matches the frame.
		flipped := goldenBoxes()
	flip:
		for _, box := range flipped {
			for _, msg := range box {
				if owns(msg.Src) && len(msg.Payload) > 0 {
					msg.Payload[len(msg.Payload)-1] ^= 1 << 40
					break flip
				}
			}
		}
		if err := verifyOwned(flipped, owns, payload); !errors.Is(err, ErrDiverged) {
			t.Fatalf("worker %d: one-word flip: %v, want ErrDiverged", w, err)
		}
	}
}

// TestEncodeOwnedExactSize: multi-byte varints (a sender id, a message count
// and a payload length of 128 or more) are sized exactly, so the frame
// never outgrows its one allocation.
func TestEncodeOwnedExactSize(t *testing.T) {
	const total = 200
	boxes := make([][]mpc.Message, total)
	for src := 0; src < total; src++ {
		boxes[0] = append(boxes[0], mpc.Message{Src: src})
	}
	boxes[1] = []mpc.Message{{Src: 150, Payload: make([]uint64, 130)}}
	for w := 0; w < 2; w++ {
		owns := func(src int) bool { return OwnerOf(src, total, 2) == w }
		payload := encodeOwned(boxes, owns)
		if len(payload) != cap(payload) {
			t.Fatalf("worker %d: frame of %d bytes in a buffer of %d", w, len(payload), cap(payload))
		}
		if err := verifyOwned(boxes, owns, payload); err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// bufPipe is an unbounded in-memory byte pipe: writes never block, reads
// block until data arrives. Both workers in the crossed-pipe tests write
// their frame before reading the peer's; a synchronous io.Pipe would
// deadlock there (the supervisor's buffered writer queues play this role in
// production).
type bufPipe struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
}

func newBufPipe() *bufPipe {
	p := &bufPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *bufPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *bufPipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 {
		p.cond.Wait()
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

// TestWorkerExchange runs two Workers over crossed pipes — each one's writes
// are the other's reads, no hub — and checks a multi-round exchange delivers
// the (verified) local boxes unchanged.
func TestWorkerExchange(t *testing.T) {
	const total = 5
	p01 := newBufPipe() // worker 0 -> worker 1
	p10 := newBufPipe() // worker 1 -> worker 0
	w0, err := NewWorker(NewConn(p10, p01), 0, 2, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewWorker(NewConn(p01, p10), 1, 2, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, wk := range []*Worker{w0, w1} {
		wg.Add(1)
		go func(wk *Worker) {
			defer wg.Done()
			for round := 1; round <= 4; round++ {
				in := testBoxes(total, round)
				out, err := wk.Exchange(round, in)
				if err != nil {
					t.Errorf("round %d: %v", round, err)
					return
				}
				want := testBoxes(total, round)
				for dst := range want {
					if len(out[dst]) != len(want[dst]) {
						t.Errorf("round %d dst %d: %d messages, want %d", round, dst, len(out[dst]), len(want[dst]))
						return
					}
				}
			}
		}(wk)
	}
	wg.Wait()
}

// TestWorkerExchangeDiverged crosses two workers whose round-2 state differs
// by one word: both must detect the divergence rather than deliver.
func TestWorkerExchangeDiverged(t *testing.T) {
	const total = 4
	p01 := newBufPipe()
	p10 := newBufPipe()
	w0, err := NewWorker(NewConn(p10, p01), 0, 2, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewWorker(NewConn(p01, p10), 1, 2, total, 0)
	if err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	run := func(wk *Worker, mutate bool) {
		defer wg.Done()
		boxes := testBoxes(total, 1)
		if mutate {
		mutated:
			for dst := range boxes {
				for i := range boxes[dst] {
					boxes[dst][i].Payload[0] ^= 1
					break mutated
				}
			}
		}
		_, err := wk.Exchange(1, boxes)
		errs <- err
	}
	wg.Add(2)
	go run(w0, false)
	go run(w1, true)
	wg.Wait()
	close(errs)
	diverged := 0
	for err := range errs {
		if errors.Is(err, ErrDiverged) {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatal("neither worker detected the divergence")
	}
}

// TestWorkerJoinAfter: rounds at or below the join round never touch the
// wire — a restarted worker replays them locally.
func TestWorkerJoinAfter(t *testing.T) {
	blocked := &blockingWriter{}
	wk, err := NewWorker(NewConn(failReader{}, blocked), 1, 3, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 5; round++ {
		boxes := testBoxes(9, round)
		out, err := wk.Exchange(round, boxes)
		if err != nil {
			t.Fatalf("replayed round %d: %v", round, err)
		}
		if len(out) != 9 {
			t.Fatalf("round %d: %d boxes", round, len(out))
		}
	}
	if blocked.writes != 0 {
		t.Fatalf("replayed rounds wrote %d frames to the wire", blocked.writes)
	}
}

type blockingWriter struct{ writes int }

func (b *blockingWriter) Write(p []byte) (int, error) { b.writes++; return len(p), nil }

type failReader struct{}

func (failReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
