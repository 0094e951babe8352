package gsys

import (
	"bytes"
	"testing"
)

// FuzzSyscallFrame drives DecodeFrame with arbitrary bytes (it must never
// panic, and must reject anything violating the framing bounds) and, when
// the input does decode, checks the re-encode/re-decode round trip is
// exact — the decoder and encoder must agree on one canonical wire form.
func FuzzSyscallFrame(f *testing.F) {
	seeds := []Frame{
		{Desc: Desc{SysOpen, GranBlock, OrderStrong, CallBlocking}, Lane: 1, Seq: 1, Path: "/seed"},
		{Desc: Desc{SysOpen, GranBlock, OrderStrong, CallBlocking}, Lane: 1, Seq: 2, Args: []uint64{0, 6, 1}, Path: "/head"},
		{Desc: Desc{SysRead, GranWarp, OrderRelaxed, CallNonBlocking}, Lane: -2, Seq: 99, Args: []uint64{4, 0, 1 << 18}},
		{Desc: Desc{SysWrite, GranBlock, OrderStrong, CallBlocking}, Seq: 3, Args: []uint64{7}, Data: []byte("payload")},
		{Desc: Desc{SysUnlink, GranBlock, OrderStrong, CallBlocking}, Seq: 5, Args: []uint64{0, 16}, Path: "/d"},
	}
	for i := range seeds {
		f.Add(seeds[i].Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x47, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, wire []byte) {
		fr, err := DecodeFrame(wire)
		if err != nil {
			return
		}
		again := fr.Encode()
		if !bytes.Equal(again, wire) {
			t.Fatalf("re-encode diverged:\n in %x\nout %x", wire, again)
		}
		fr2, err := DecodeFrame(again)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if fr2.Desc != fr.Desc || fr2.Lane != fr.Lane || fr2.Seq != fr.Seq || fr2.Path != fr.Path ||
			len(fr2.Args) != len(fr.Args) || !bytes.Equal(fr2.Data, fr.Data) {
			t.Fatalf("round trip changed frame: %+v vs %+v", fr, fr2)
		}
	})
}
