package core

import (
	"strings"
	"testing"
	"time"

	"paso/internal/class"
	"paso/internal/tuple"
)

// FuzzDecodeCommand: the server-side command decoder faces whatever bytes
// the group layer delivers; it must never panic and accepted commands must
// re-encode/decode stably.
func FuzzDecodeCommand(f *testing.F) {
	f.Add(encodeCommand(&command{kind: cmdStore, class: "task/2",
		obj: tuple.Make(tuple.String("task"), tuple.Int(1))}))
	f.Add(encodeCommand(&command{kind: cmdRead, class: "task/2",
		tpl: tuple.NewTemplate(tuple.Any(tuple.KindInt))}))
	f.Add(encodeCommand(&command{kind: cmdSwap, class: "task/2",
		tpl: tuple.NewTemplate(tuple.Any(tuple.KindInt)),
		obj: tuple.Make(tuple.Int(2))}))
	f.Add([]byte{})
	f.Add([]byte{9, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCommand(data)
		if err != nil {
			return
		}
		re := encodeCommand(c)
		c2, err := decodeCommand(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if c2.kind != c.kind || c2.class != c.class {
			t.Fatalf("round trip changed kind/class: %+v vs %+v", c, c2)
		}
	})
}

// FuzzDecodeResponse covers the reply path.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(encodeResponse(&response{ok: true, probes: 3,
		obj: tuple.Make(tuple.String("x"))}))
	f.Add(encodeResponse(&response{ok: false, probes: 9}))
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeResponse(data)
		if err != nil {
			return
		}
		re := encodeResponse(r)
		if _, err := decodeResponse(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// maxFuzzWait caps the duration a fuzzed readwait/takewait line may block
// for. A client-chosen wait is legitimate protocol, but the fuzz engine
// reports any input that runs over 10s as a hang, so longer waits are
// rewritten to this bound before the line executes.
const maxFuzzWait = 5 * time.Millisecond

// boundWait returns line with a readwait/takewait duration above
// maxFuzzWait replaced by maxFuzzWait; every other line comes back as is.
func boundWait(line string) string {
	fields := strings.Fields(line)
	if len(fields) < 2 || (fields[0] != "readwait" && fields[0] != "takewait") {
		return line
	}
	if d, err := time.ParseDuration(fields[1]); err != nil || d <= maxFuzzWait {
		return line
	}
	fields[1] = maxFuzzWait.String()
	return strings.Join(fields, " ")
}

// FuzzProtocolParse drives the pasod line-protocol parser: arbitrary
// command lines must never panic (they execute against a real machine, so
// only obviously non-mutating parse failures are checked here — mutating
// verbs run against a throwaway single-machine cluster). Blocking waits
// are bounded by boundWait.
func FuzzProtocolParse(f *testing.F) {
	cfg := Config{Classifier: class.NewNameArity([]string{"task"}, 4), Lambda: 0}
	c, err := NewCluster(cfg, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Shutdown)
	m := c.Machine(1)
	f.Add("insert task i:1")
	f.Add("read task ?i")
	f.Add("take task i:0..9")
	f.Add("swap task ?i -- i:2")
	f.Add("readwait 1ms task ?i")
	f.Add("stats")
	f.Add("insert task s:" + string([]byte{0xff, 0xfe}))
	f.Add("readwait 1m tas\xb1 ?i")
	f.Fuzz(func(t *testing.T, line string) {
		resp := ExecuteCommand(m, boundWait(line))
		if resp == "" {
			t.Fatal("empty response")
		}
	})
}
