package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestValueRoundTrip(t *testing.T) {
	cases := []any{
		nil,
		true,
		false,
		42,
		-7,
		int64(1 << 40),
		uint64(18446744073709551615),
		3.25,
		"hello",
		"",
		[]byte{1, 2, 3},
		250 * time.Millisecond,
		[]any{"a", 1, []any{true, nil}},
	}
	for _, want := range cases {
		buf, err := AppendValue(nil, want)
		if err != nil {
			t.Fatalf("AppendValue(%v): %v", want, err)
		}
		got, rest, err := ReadValue(buf)
		if err != nil {
			t.Fatalf("ReadValue(%v): %v", want, err)
		}
		if len(rest) != 0 {
			t.Fatalf("ReadValue(%v): %d trailing bytes", want, len(rest))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %#v want %#v", got, want)
		}
	}
}

func TestValueUnsupported(t *testing.T) {
	if _, err := AppendValue(nil, struct{ X int }{1}); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("want ErrUnsupportedType, got %v", err)
	}
	if _, err := AppendValue(nil, []any{"ok", make(chan int)}); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("nested unsupported: want ErrUnsupportedType, got %v", err)
	}
}

func TestEmptyResultsStayNil(t *testing.T) {
	buf, err := AppendValues(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadValues(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("want nil results, got %#v", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	hello := Hello{Node: "n1", System: "Cluster", Components: []string{"Store", "Front"}, MaxVersion: Version}
	call := Call{Corr: 7, Component: "Store", Op: "get", Principal: "alice",
		DeadlineNanos: int64(1500 * time.Millisecond), Args: []any{"k", 2}}
	reply := Reply{Corr: 7, Results: []any{"v"}}
	mig := Migrate{Corr: 3, Component: "Store", Implements: "KV",
		Properties: map[string]string{"statefulness": "stateful", "cpu": "2"},
		CPU:        2, HasState: true, State: []byte("state-bytes")}
	ack := MigrateAck{Corr: 3, Err: "nope"}
	ann := Announce{Add: true, Component: "Store"}

	if err := send(enc, FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	if err := send(enc, FrameCall, call); err != nil {
		t.Fatal(err)
	}
	if err := send(enc, FrameReply, reply); err != nil {
		t.Fatal(err)
	}
	if err := send(enc, FrameMigrate, mig); err != nil {
		t.Fatal(err)
	}
	if err := send(enc, FrameMigrateAck, ack); err != nil {
		t.Fatal(err)
	}
	if err := send(enc, FrameAnnounce, ann); err != nil {
		t.Fatal(err)
	}

	typ, body, err := dec.Next()
	if err != nil || typ != FrameHello {
		t.Fatalf("frame 1: %v %v", typ, err)
	}
	gotHello, err := ParseHello(body)
	if err != nil || !reflect.DeepEqual(gotHello, hello) {
		t.Fatalf("hello: %#v %v", gotHello, err)
	}

	typ, body, err = dec.Next()
	if err != nil || typ != FrameCall {
		t.Fatalf("call frame: %v %v", typ, err)
	}
	gotCall, err := ParseCall(body)
	if err != nil || !reflect.DeepEqual(gotCall, call) {
		t.Fatalf("call: %#v %v", gotCall, err)
	}

	typ, body, err = dec.Next()
	if err != nil || typ != FrameReply {
		t.Fatalf("reply frame: %v %v", typ, err)
	}
	gotReply, err := ParseReply(body)
	if err != nil || !reflect.DeepEqual(gotReply, reply) {
		t.Fatalf("reply: %#v %v", gotReply, err)
	}

	typ, body, err = dec.Next()
	if err != nil || typ != FrameMigrate {
		t.Fatalf("migrate frame: %v %v", typ, err)
	}
	gotMig, err := ParseMigrate(body)
	if err != nil || !reflect.DeepEqual(gotMig, mig) {
		t.Fatalf("migrate: %#v %v", gotMig, err)
	}

	typ, body, err = dec.Next()
	if err != nil || typ != FrameMigrateAck {
		t.Fatalf("ack frame: %v %v", typ, err)
	}
	gotAck, err := ParseMigrateAck(body)
	if err != nil || gotAck != ack {
		t.Fatalf("ack: %#v %v", gotAck, err)
	}

	typ, body, err = dec.Next()
	if err != nil || typ != FrameAnnounce {
		t.Fatalf("announce frame: %v %v", typ, err)
	}
	gotAnn, err := ParseAnnounce(body)
	if err != nil || gotAnn != ann {
		t.Fatalf("announce: %#v %v", gotAnn, err)
	}
}

func TestHelloVersionNegotiation(t *testing.T) {
	// MaxVersion rides the hello; a later build may offer more than Version.
	for _, offer := range []uint8{Version, Version + 1} {
		h, err := ParseHello(AppendHello(nil, Hello{Node: "n1", System: "S", MaxVersion: offer}))
		if err != nil || h.MaxVersion != offer {
			t.Fatalf("offer %d: MaxVersion=%d err=%v", offer, h.MaxVersion, err)
		}
	}
	// An offer below Version is the one version mismatch, and it has one
	// error.
	if _, err := ParseHello(AppendHello(nil, Hello{Node: "n1", System: "S", MaxVersion: Version - 1})); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("old offer: want ErrBadVersion, got %v", err)
	}
}

func TestReplyKindRoundTrip(t *testing.T) {
	for _, r := range []Reply{
		{Corr: 9, Err: "core: deadline exceeded", Kind: KindDeadline},
		{Corr: 10, Err: "core: overloaded", Kind: KindOverloaded},
	} {
		buf, err := AppendReply(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseReply(buf)
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("reply: %#v %v", got, err)
		}
	}
}

func TestRawArgsEquivalence(t *testing.T) {
	args := []any{"key-1", 42, true}
	raw, err := AppendValues(nil, args)
	if err != nil {
		t.Fatal(err)
	}
	boxed, err := AppendCall(nil, Call{Corr: 5, Component: "Store", Op: "get", Args: args})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := AppendCall(nil, Call{Corr: 5, Component: "Store", Op: "get", RawArgs: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(boxed, pre) {
		t.Fatalf("RawArgs encoding diverges:\n boxed %x\n pre   %x", boxed, pre)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	calls := []Call{
		{Corr: 1, Component: "Store", Op: "get", Args: []any{"a"}},
		{Corr: 2, Component: "Store", Op: "put", Args: []any{"b", 7}},
	}
	reply := Reply{Corr: 3, Err: "boom", Kind: KindAppError, Results: nil}

	for _, c := range calls {
		if err := add(enc, FrameCall, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := add(enc, FrameReply, reply); err != nil {
		t.Fatal(err)
	}
	if n, _ := enc.Pending(); n != 3 {
		t.Fatalf("batch count = %d", n)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	typ, body, err := dec.Next()
	if err != nil || typ != FrameBatch {
		t.Fatalf("frame: %v %v", typ, err)
	}
	for i, want := range calls {
		st, sb, rest, err := ReadBatchFrame(body)
		if err != nil || st != FrameCall {
			t.Fatalf("sub %d: %v %v", i, st, err)
		}
		got, err := ParseCall(sb)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("sub %d: %#v %v", i, got, err)
		}
		body = rest
	}
	st, sb, rest, err := ReadBatchFrame(body)
	if err != nil || st != FrameReply {
		t.Fatalf("reply sub: %v %v", st, err)
	}
	gotReply, err := ParseReply(sb)
	if err != nil || !reflect.DeepEqual(gotReply, reply) {
		t.Fatalf("reply: %#v %v", gotReply, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after batch", len(rest))
	}
	// An empty flush writes nothing.
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if conn.Len() != 0 {
		t.Fatalf("empty batch wrote %d bytes", conn.Len())
	}
	// A truncated sub-frame is rejected, not mis-parsed.
	if _, _, _, err := ReadBatchFrame([]byte{byte(FrameCall), 0, 0, 0, 9, 1}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated sub-frame: %v", err)
	}
}

// writeLog records the header and length of every write it is handed, so
// the MaxFrame tests can inspect near-MaxFrame writes without keeping them.
type writeLog struct {
	headers [][headerSize]byte
	sizes   []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	var h [headerSize]byte
	copy(h[:], p)
	w.headers = append(w.headers, h)
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

// TestEncoderMaxFrame pins the MaxFrame rule for pending frames: a body over
// MaxFrame is refused on its own and leaves the pending frames intact, and a
// frame that fits alone but would take the batch past MaxFrame goes out
// plain after the frames pending before it.
func TestEncoderMaxFrame(t *testing.T) {
	var w writeLog
	enc := NewEncoder(&w)
	small := Call{Corr: 1, Component: "S", Op: "get", Args: []any{"k"}}
	if err := add(enc, FrameCall, small); err != nil {
		t.Fatal(err)
	}
	// Corr, component and seq take 4 bytes and the state's length prefix 4
	// more: a state of MaxFrame-7 bytes is one byte over, state[1:] fits
	// exactly.
	state := make([]byte, MaxFrame-7)
	if err := add(enc, FrameReplicate, Replicate{Corr: 1, Component: "S", Seq: 1, State: state}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized add: %v, want ErrFrameTooBig", err)
	}
	if n, _ := enc.Pending(); n != 1 {
		t.Fatalf("%d frames pending after the refused add, want 1", n)
	}
	if err := add(enc, FrameReplicate, Replicate{Corr: 1, Component: "S", Seq: 1, State: state[1:]}); err != nil {
		t.Fatalf("MaxFrame-sized add: %v", err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(w.sizes) != 2 {
		t.Fatalf("%d writes, want 2", len(w.sizes))
	}
	var callFrame bytes.Buffer
	if err := send(NewEncoder(&callFrame), FrameCall, small); err != nil {
		t.Fatal(err)
	}
	if first := w.headers[0]; w.sizes[0] != callFrame.Len() || !bytes.Equal(first[:], callFrame.Bytes()[:headerSize]) {
		t.Fatalf("first write: header %x, %d bytes; want the plain call frame", first, w.sizes[0])
	}
	second := w.headers[1]
	if FrameType(second[3]) != FrameReplicate || binary.BigEndian.Uint32(second[4:]) != MaxFrame ||
		w.sizes[1] != headerSize+MaxFrame {
		t.Fatalf("second write: header %x, %d bytes; want a plain MaxFrame replicate", second, w.sizes[1])
	}
}

func TestCancelRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	// Standalone frame.
	want := Cancel{Corr: 7_000_000_001}
	if err := send(enc, FrameCancel, want); err != nil {
		t.Fatal(err)
	}
	typ, body, err := dec.Next()
	if err != nil || typ != FrameCancel {
		t.Fatalf("frame: %v %v", typ, err)
	}
	got, err := ParseCancel(body)
	if err != nil || got != want {
		t.Fatalf("cancel: %#v %v", got, err)
	}

	// Batched sub-frame, coalescing with a call.
	if err := add(enc, FrameCall, Call{Corr: 1, Component: "C", Op: "op"}); err != nil {
		t.Fatal(err)
	}
	if err := add(enc, FrameCancel, want); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, body, err = dec.Next()
	if err != nil || typ != FrameBatch {
		t.Fatalf("batch frame: %v %v", typ, err)
	}
	st, _, rest, err := ReadBatchFrame(body)
	if err != nil || st != FrameCall {
		t.Fatalf("call sub: %v %v", st, err)
	}
	st, sb, rest, err := ReadBatchFrame(rest)
	if err != nil || st != FrameCancel {
		t.Fatalf("cancel sub: %v %v", st, err)
	}
	if got, err := ParseCancel(sb); err != nil || got != want {
		t.Fatalf("batched cancel: %#v %v", got, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}

	// Truncation is rejected.
	if _, err := ParseCancel(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty cancel body: %v", err)
	}
}

func TestDecoderRejectsBadMagic(t *testing.T) {
	dec := NewDecoder(bytes.NewReader([]byte{0, 0, 1, 1, 0, 0, 0, 0}))
	if _, _, err := dec.Next(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestDecoderRejectsBadVersion(t *testing.T) {
	for _, v := range []byte{2, Version - 1, Version + 1, 99} {
		dec := NewDecoder(bytes.NewReader([]byte{magic0, magic1, v, byte(FrameHello), 0, 0, 0, 0}))
		if _, _, err := dec.Next(); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("header version %d: want ErrBadVersion, got %v", v, err)
		}
	}
}

func TestDecoderRejectsOversizedFrame(t *testing.T) {
	hdr := []byte{magic0, magic1, Version, 1, 0xFF, 0xFF, 0xFF, 0xFF}
	dec := NewDecoder(bytes.NewReader(hdr))
	if _, _, err := dec.Next(); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("want ErrFrameTooBig, got %v", err)
	}
}

func TestTruncatedBodies(t *testing.T) {
	if _, _, err := ReadString([]byte{5, 'a'}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("string: want ErrTruncated, got %v", err)
	}
	if _, err := ParseCall([]byte{}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("call: want ErrTruncated, got %v", err)
	}
	// The trace trailer is required: a call body without it is truncated.
	call, err := AppendCall(nil, Call{Corr: 1, Component: "C", Op: "op"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCall(call[:len(call)-traceTrailerSize]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("call without trailer: want ErrTruncated, got %v", err)
	}
	if _, err := ParseMigrate([]byte{1, 0}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("migrate: want ErrTruncated, got %v", err)
	}
	// A migrate body claiming more property entries than bytes remaining
	// must not pre-size a huge map.
	if _, err := ParseMigrate([]byte{1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("migrate property bomb: want ErrTruncated, got %v", err)
	}
	// A slice claiming more elements than bytes remaining must not
	// over-allocate or loop.
	if _, _, err := ReadValue([]byte{tSlice, 0xFF, 0xFF, 0x01}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("slice bomb: want ErrTruncated, got %v", err)
	}
}

func BenchmarkEncodeCall(b *testing.B) {
	enc := NewEncoder(noopWriter{})
	call := Call{Corr: 1, Component: "Store", Op: "get", Principal: "", Args: []any{"key-0001", 42}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call.Corr = uint64(i)
		err := enc.Add(FrameCall, func(dst []byte) ([]byte, error) { return AppendCall(dst, call) })
		if err == nil {
			err = enc.Flush()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

type noopWriter struct{}

// appendBody adapts one frame value to an Encoder.Add body.
func appendBody(v any) func([]byte) ([]byte, error) {
	return func(dst []byte) ([]byte, error) {
		switch x := v.(type) {
		case Hello:
			return AppendHello(dst, x), nil
		case Call:
			return AppendCall(dst, x)
		case Reply:
			return AppendReply(dst, x)
		case Cancel:
			return AppendCancel(dst, x), nil
		case StreamOpen:
			return AppendStreamOpen(dst, x)
		case StreamChunk:
			return AppendStreamChunk(dst, x)
		case StreamCredit:
			return AppendStreamCredit(dst, x), nil
		case StreamEnd:
			return AppendStreamEnd(dst, x), nil
		case Gossip:
			return AppendGossip(dst, x), nil
		case Replicate:
			return AppendReplicate(dst, x), nil
		case ReplicateAck:
			return AppendReplicateAck(dst, x), nil
		case Migrate:
			return AppendMigrate(dst, x), nil
		case MigrateAck:
			return AppendMigrateAck(dst, x), nil
		case Announce:
			return AppendAnnounce(dst, x), nil
		}
		return dst, fmt.Errorf("no body encoder for %T", v)
	}
}

// add adds v to e's pending write as one frame of type t.
func add(e *Encoder, t FrameType, v any) error { return e.Add(t, appendBody(v)) }

// send writes v on its own as one frame of type t.
func send(e *Encoder, t FrameType, v any) error {
	if err := add(e, t, v); err != nil {
		return err
	}
	return e.Flush()
}

func (noopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestStreamFramesRoundTrip covers the four stream frames standalone and
// as batch sub-frames — the coalescing path a flowing stream actually uses.
func TestStreamFramesRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	open := StreamOpen{Corr: 41, Component: "Feed", Op: "list",
		Principal: "alice", DeadlineNanos: 5_000_000, Window: 32,
		Args: []any{"prefix", 10}}
	if err := send(enc, FrameStreamOpen, open); err != nil {
		t.Fatal(err)
	}
	typ, body, err := dec.Next()
	if err != nil || typ != FrameStreamOpen {
		t.Fatalf("open frame: %v %v", typ, err)
	}
	gotOpen, err := ParseStreamOpen(body)
	if err != nil || gotOpen.Corr != open.Corr || gotOpen.Component != open.Component ||
		gotOpen.Op != open.Op || gotOpen.Principal != open.Principal ||
		gotOpen.DeadlineNanos != open.DeadlineNanos || gotOpen.Window != open.Window ||
		len(gotOpen.Args) != 2 || gotOpen.Args[0] != "prefix" {
		t.Fatalf("open: %#v %v", gotOpen, err)
	}

	chunk := StreamChunk{Corr: 41, Seq: 3, Item: "item-3"}
	if err := send(enc, FrameStreamChunk, chunk); err != nil {
		t.Fatal(err)
	}
	typ, body, err = dec.Next()
	if err != nil || typ != FrameStreamChunk {
		t.Fatalf("chunk frame: %v %v", typ, err)
	}
	if got, err := ParseStreamChunk(body); err != nil || got != chunk {
		t.Fatalf("chunk: %#v %v", got, err)
	}

	credit := StreamCredit{Corr: 41, Credit: 8}
	if err := send(enc, FrameStreamCredit, credit); err != nil {
		t.Fatal(err)
	}
	typ, body, err = dec.Next()
	if err != nil || typ != FrameStreamCredit {
		t.Fatalf("credit frame: %v %v", typ, err)
	}
	if got, err := ParseStreamCredit(body); err != nil || got != credit {
		t.Fatalf("credit: %#v %v", got, err)
	}

	end := StreamEnd{Corr: 41, Err: "boom", Kind: KindAppError}
	if err := send(enc, FrameStreamEnd, end); err != nil {
		t.Fatal(err)
	}
	typ, body, err = dec.Next()
	if err != nil || typ != FrameStreamEnd {
		t.Fatalf("end frame: %v %v", typ, err)
	}
	if got, err := ParseStreamEnd(body); err != nil || got != end {
		t.Fatalf("end: %#v %v", got, err)
	}

	// All four coalesce as batch sub-frames alongside a reply.
	if err := add(enc, FrameStreamOpen, open); err != nil {
		t.Fatal(err)
	}
	if err := add(enc, FrameStreamChunk, chunk); err != nil {
		t.Fatal(err)
	}
	if err := add(enc, FrameReply, Reply{Corr: 9, Results: []any{"r"}}); err != nil {
		t.Fatal(err)
	}
	if err := add(enc, FrameStreamCredit, credit); err != nil {
		t.Fatal(err)
	}
	if err := add(enc, FrameStreamEnd, end); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, body, err = dec.Next()
	if err != nil || typ != FrameBatch {
		t.Fatalf("batch frame: %v %v", typ, err)
	}
	wantSubs := []FrameType{FrameStreamOpen, FrameStreamChunk, FrameReply, FrameStreamCredit, FrameStreamEnd}
	for i, want := range wantSubs {
		st, sb, rest, err := ReadBatchFrame(body)
		if err != nil || st != want {
			t.Fatalf("sub %d: %v %v", i, st, err)
		}
		switch st {
		case FrameStreamChunk:
			if got, err := ParseStreamChunk(sb); err != nil || got != chunk {
				t.Fatalf("batched chunk: %#v %v", got, err)
			}
		case FrameStreamEnd:
			if got, err := ParseStreamEnd(sb); err != nil || got != end {
				t.Fatalf("batched end: %#v %v", got, err)
			}
		}
		body = rest
	}
	if len(body) != 0 {
		t.Fatalf("%d trailing bytes", len(body))
	}

	// Truncated bodies are rejected, not crashed on.
	for _, parse := range []func([]byte) error{
		func(b []byte) error { _, err := ParseStreamOpen(b); return err },
		func(b []byte) error { _, err := ParseStreamChunk(b); return err },
		func(b []byte) error { _, err := ParseStreamCredit(b); return err },
		func(b []byte) error { _, err := ParseStreamEnd(b); return err },
	} {
		if err := parse(nil); !errors.Is(err, ErrTruncated) {
			t.Fatalf("empty body: %v", err)
		}
	}
}

func TestGossipRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	g := Gossip{Members: []GossipMember{
		{Node: "n1", Addr: "127.0.0.1:7001", Incarnation: 3, Version: 91, Status: GossipAlive,
			Load: 0.75, Comps: []GossipComp{
				{Name: "Store", Load: 1.25e6, Follower: "n2"},
				{Name: "Front", Load: 0, Follower: ""},
			}},
		{Node: "n2", Addr: "127.0.0.1:7002", Incarnation: 1, Version: 40, Status: GossipSuspect, Load: 0.1},
		{Node: "n3", Addr: "", Incarnation: 0, Version: 0, Status: GossipDead},
	}}
	if err := send(enc, FrameGossip, g); err != nil {
		t.Fatal(err)
	}
	typ, body, err := dec.Next()
	if err != nil || typ != FrameGossip {
		t.Fatalf("frame: %v %v", typ, err)
	}
	got, err := ParseGossip(body)
	if err != nil || !reflect.DeepEqual(got, g) {
		t.Fatalf("gossip round trip: %#v %v", got, err)
	}
	if _, err := ParseGossip(body[:len(body)-3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated gossip: %v", err)
	}
	if _, err := ParseGossip(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty gossip: %v", err)
	}
}

func TestReplicateRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	rep := Replicate{Corr: 11, Component: "Store", Seq: 42, State: []byte("snapshot-bytes")}
	ack := ReplicateAck{Corr: 11, Component: "Store", Seq: 42, Err: "busy"}

	if err := send(enc, FrameReplicate, rep); err != nil {
		t.Fatal(err)
	}
	if err := send(enc, FrameReplicateAck, ack); err != nil {
		t.Fatal(err)
	}
	if err := add(enc, FrameReplicate, rep); err != nil {
		t.Fatal(err)
	}
	if err := add(enc, FrameReplicateAck, ack); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	typ, body, err := dec.Next()
	if err != nil || typ != FrameReplicate {
		t.Fatalf("frame 1: %v %v", typ, err)
	}
	if got, err := ParseReplicate(body); err != nil || !reflect.DeepEqual(got, rep) {
		t.Fatalf("replicate: %#v %v", got, err)
	}
	typ, body, err = dec.Next()
	if err != nil || typ != FrameReplicateAck {
		t.Fatalf("frame 2: %v %v", typ, err)
	}
	if got, err := ParseReplicateAck(body); err != nil || got != ack {
		t.Fatalf("ack: %#v %v", got, err)
	}
	typ, body, err = dec.Next()
	if err != nil || typ != FrameBatch {
		t.Fatalf("frame 3: %v %v", typ, err)
	}
	st, sb, rest, err := ReadBatchFrame(body)
	if err != nil || st != FrameReplicate {
		t.Fatalf("sub 1: %v %v", st, err)
	}
	if got, err := ParseReplicate(sb); err != nil || !reflect.DeepEqual(got, rep) {
		t.Fatalf("batched replicate: %#v %v", got, err)
	}
	st, sb, rest, err = ReadBatchFrame(rest)
	if err != nil || st != FrameReplicateAck {
		t.Fatalf("sub 2: %v %v", st, err)
	}
	if got, err := ParseReplicateAck(sb); err != nil || got != ack {
		t.Fatalf("batched ack: %#v %v", got, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}

	for _, parse := range []func([]byte) error{
		func(b []byte) error { _, err := ParseReplicate(b); return err },
		func(b []byte) error { _, err := ParseReplicateAck(b); return err },
	} {
		if err := parse(nil); !errors.Is(err, ErrTruncated) {
			t.Fatalf("empty body: %v", err)
		}
	}
}

func TestHelloAddrTrailer(t *testing.T) {
	// The hello advertises the sender's listen address after MaxVersion.
	h := Hello{Node: "n1", System: "S", MaxVersion: Version, Addr: "10.0.0.1:7000"}
	buf := AppendHello(nil, h)
	got, err := ParseHello(buf)
	if err != nil || got.Addr != h.Addr || got.MaxVersion != Version {
		t.Fatalf("addr trailer: %#v %v", got, err)
	}

	// Both fields are required: a body that stops before Addr, or before
	// MaxVersion, is truncated.
	noAddr := buf[:len(buf)-len(AppendString(nil, h.Addr))]
	noMax := noAddr[:len(noAddr)-1]
	for _, b := range [][]byte{noAddr, noMax} {
		if _, err := ParseHello(b); !errors.Is(err, ErrTruncated) {
			t.Fatalf("hello of %d bytes: want ErrTruncated, got %v", len(b), err)
		}
	}
}
