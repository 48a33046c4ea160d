package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Worker: 0, Round: 0},
		{Type: FrameMessages, Worker: 2, Round: 41, Payload: []byte("hello frames")},
		{Type: FrameHeartbeat, Worker: 1, Round: 7},
		{Type: FrameResult, Worker: 3, Round: 99, Payload: bytes.Repeat([]byte{0xAB}, 1<<16)},
		{Type: FrameError, Worker: 0, Round: 5, Payload: []byte(`{"message":"x"}`)},
		{Type: FrameStop, Worker: 0, Round: 0},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write %+v: %v", f, err)
		}
	}
	r := NewConn(&buf, io.Discard)
	for i, want := range frames {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Worker != want.Worker || got.Round != want.Round || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FrameMessages, Worker: 1, Round: 3, Payload: []byte("payload bytes")}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	// Every single-bit flip anywhere in the frame must surface as ErrFraming
	// (magic mismatch or CRC mismatch), never as silent acceptance.
	for i := range whole {
		for bit := 0; bit < 8; bit++ {
			dam := append([]byte(nil), whole...)
			dam[i] ^= 1 << bit
			c := NewConn(bytes.NewReader(dam), io.Discard)
			f, err := c.Read()
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted: %+v", i, bit, f)
			}
			if !errors.Is(err, ErrFraming) {
				t.Fatalf("bit flip at byte %d bit %d: %v, want ErrFraming", i, bit, err)
			}
		}
	}

	// Every truncation point: a torn frame is ErrFraming, an empty stream is
	// clean EOF.
	for cut := 0; cut < len(whole); cut++ {
		c := NewConn(bytes.NewReader(whole[:cut]), io.Discard)
		_, err := c.Read()
		if cut == 0 {
			if !errors.Is(err, io.EOF) || errors.Is(err, ErrFraming) {
				t.Fatalf("empty stream: %v, want clean io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, ErrFraming) {
			t.Fatalf("truncated at %d/%d: %v, want ErrFraming", cut, len(whole), err)
		}
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	f := Frame{Type: FrameMessages, Worker: 0, Round: 1, Payload: make([]byte, 8)}
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	// Forge the payload length far beyond MaxFramePayload, leaving the rest
	// intact: the reader must reject on the declared size before allocating.
	b := buf.Bytes()
	b[17], b[18], b[19], b[20] = 0xFF, 0xFF, 0xFF, 0xFF
	c := NewConn(bytes.NewReader(b), io.Discard)
	if _, err := c.Read(); !errors.Is(err, ErrFraming) {
		t.Fatalf("oversize payload: %v, want ErrFraming", err)
	}
}

func TestOwnerOf(t *testing.T) {
	for _, tc := range []struct {
		total, workers int
	}{
		{1, 1}, {8, 1}, {8, 2}, {8, 3}, {9, 3}, {10, 3}, {7, 7}, {100, 16},
	} {
		per := (tc.total + tc.workers - 1) / tc.workers
		counts := make([]int, tc.workers)
		prev := 0
		for m := 0; m < tc.total; m++ {
			o := OwnerOf(m, tc.total, tc.workers)
			if o < 0 || o >= tc.workers {
				t.Fatalf("OwnerOf(%d, %d, %d) = %d out of range", m, tc.total, tc.workers, o)
			}
			if o < prev {
				t.Fatalf("OwnerOf not monotone at m=%d (total=%d workers=%d)", m, tc.total, tc.workers)
			}
			prev = o
			counts[o]++
		}
		for w, n := range counts {
			if n > per {
				t.Fatalf("worker %d owns %d > %d machines (total=%d workers=%d)", w, n, per, tc.total, tc.workers)
			}
		}
		// Every worker the supervisor would spawn must own at least one
		// machine whenever workers <= total (the supervisor enforces that).
		if tc.workers <= tc.total {
			for w, n := range counts {
				if n == 0 {
					t.Fatalf("worker %d owns no machines (total=%d workers=%d)", w, tc.total, tc.workers)
				}
			}
		}
	}
}

// writeLog records the slices handed to Write.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, p)
	return len(p), nil
}

// TestWriteFrameDoesNotCopyPayload: the relay path writes the payload slice
// itself after the header, so forwarding a frame allocates no copy of it.
func TestWriteFrameDoesNotCopyPayload(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 1<<12)
	w := &writeLog{}
	if err := WriteFrame(w, Frame{Type: FrameMessages, Worker: 1, Round: 3, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 2 || len(w.writes[0]) != headerLen || &w.writes[1][0] != &payload[0] || len(w.writes[1]) != len(payload) {
		t.Fatalf("writes of %d slices; want the %d-byte header, then the payload itself", len(w.writes), headerLen)
	}
	var buf bytes.Buffer
	for _, p := range w.writes {
		buf.Write(p)
	}
	got, err := ReadFrame(&buf)
	if err != nil || !bytes.Equal(got.Payload, payload) || got.Round != 3 || got.Worker != 1 {
		t.Fatalf("reassembled frame: %+v, %v", got, err)
	}
}
