//go:build linux

package superstep

import (
	"errors"
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// TestOversizedPayloadIsMachineError: a payload longer than a send record
// can count (more than MaxInt32 words) is the sender's *MachineError, for
// Send and SendOwned alike, and nothing is committed. The payload is a
// reserved but never touched anonymous mapping, so the test costs no memory.
func TestOversizedPayloadIsMachineError(t *testing.T) {
	const words = math.MaxInt32 + 1
	mem, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		t.Skipf("cannot reserve a %d-word payload: %v", words, err)
	}
	defer syscall.Munmap(mem)
	huge := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)
	for _, send := range []func(x *Ctx){
		func(x *Ctx) { x.SendOwned(0, huge) },
		func(x *Ctx) { x.Send(0, huge...) },
	} {
		e := newEngine(t, Config[node, Tally]{N: 2, Model: "test", Noun: "node"})
		err := e.Step("huge", 1, func(x *node) {
			if x.id == 1 {
				send(&x.s)
			}
		}, noBudget)
		var me *MachineError
		if !errors.As(err, &me) || me.Machine != 1 || e.T.Rounds != 0 {
			t.Fatalf("err = %v, rounds %d", err, e.T.Rounds)
		}
	}
}
