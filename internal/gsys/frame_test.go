package gsys

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Desc: Desc{SysOpen, GranBlock, OrderStrong, CallBlocking}, Lane: 0, Seq: 1, Path: "/a/b"},
		{Desc: Desc{SysRead, GranBlock, OrderStrong, CallBlocking}, Lane: 17, Seq: 42, Args: []uint64{3, 1 << 40, 262144}},
		{Desc: Desc{SysRead, GranWarp, OrderRelaxed, CallNonBlocking}, Lane: -9, Seq: 7, Args: []uint64{1, 2, 3, 4}},
		{Desc: Desc{SysPipeWrite, GranBlock, OrderStrong, CallBlocking}, Lane: 3, Seq: 9,
			Args: []uint64{12}, Data: []byte("hello, pipe")},
		{Desc: Desc{SysReaddir, GranBlock, OrderStrong, CallBlocking}, Lane: 1, Seq: 2,
			Args: []uint64{0, 64}, Path: "/dir"},
		{Desc: Desc{SysPipeClose, GranThread, OrderRelaxed, CallNonBlocking}, Lane: 1 << 20, Seq: 1<<64 - 1},
	}
	for i, in := range frames {
		wire := in.Encode()
		out, err := DecodeFrame(wire)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if out.Desc != in.Desc || out.Lane != in.Lane || out.Seq != in.Seq || out.Path != in.Path {
			t.Fatalf("frame %d: got %+v, want %+v", i, out, in)
		}
		if len(out.Args) != len(in.Args) {
			t.Fatalf("frame %d: %d args back, want %d", i, len(out.Args), len(in.Args))
		}
		for j := range in.Args {
			if out.Args[j] != in.Args[j] {
				t.Fatalf("frame %d arg %d: %d, want %d", i, j, out.Args[j], in.Args[j])
			}
		}
		if !bytes.Equal(out.Data, in.Data) {
			t.Fatalf("frame %d: data %q, want %q", i, out.Data, in.Data)
		}
	}
}

func TestFrameDecodeRejects(t *testing.T) {
	good := (&Frame{Desc: Desc{SysFsync, GranBlock, OrderStrong, CallBlocking}, Args: []uint64{5}}).Encode()
	cases := []struct {
		name string
		wire []byte
	}{
		{"empty", nil},
		{"short header", good[:8]},
		{"bad magic", append([]byte{0xff, 0xff}, good[2:]...)},
		{"bad version", mutate(good, 2, 9)},
		{"bad sysno", mutate(good, 3, uint8(numSysno))},
		{"reserved flags", mutate(good, 4, 0xf0)},
		{"bad gran", mutate(good, 4, 3)},
		{"argc over limit", mutate(good, 5, MaxFrameArgs+1)},
		{"truncated args", good[:len(good)-10]},
		{"trailing garbage", append(append([]byte{}, good...), 0)},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.wire); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
}

func mutate(b []byte, i int, v byte) []byte {
	out := append([]byte{}, b...)
	out[i] = v
	return out
}

func TestDescStringsAndParsers(t *testing.T) {
	for s := Sysno(0); s < numSysno; s++ {
		if name := s.String(); name == "" || strings.HasPrefix(name, "sys(") {
			t.Errorf("Sysno %d has no name", s)
		}
	}
	for _, tc := range []struct {
		in   string
		want Granularity
		ok   bool
	}{{"thread", GranThread, true}, {"warp", GranWarp, true}, {"block", GranBlock, true}, {"", 0, false}, {"wavefront", 0, false}} {
		got, err := ParseGranularity(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseGranularity(%q) = %v, %v", tc.in, got, err)
		}
	}
}
