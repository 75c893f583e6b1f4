package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"time"
)

// goldenFrames is the v7 encoding of one fixed instance of every frame
// type, as hex of the whole frame (header included). The hex was captured
// from the build that still carried the v2–v7 version ladder, with its
// encoder set to version 7. The only permitted difference is the header
// version byte (offset 2) of hello and welcome: that build stamped every
// handshake frame 2 so that v2 peers could read it, and this one stamps
// every frame 7. Every frame body and every frame-type number is unchanged.
var goldenFrames = []struct {
	name string
	hex  string
}{
	{"hello", "a557070100000025026e310453686f70020546726f6e740553746f7265070e3132372e302e302e313a37303031"},
	{"welcome", "a55707020000001e026e320453686f70010443617274070e3132372e302e302e313a37303032"},
	{"call", "a55707040000004bac020553746f72650367657405616c696365c08db7010a07016b03040411050706400c000000000000020101080201020a80cab5ee01090107017888776655443322110300000005000000"},
	{"call-raw", "a557070400000028ad020553746f72650367657400000207056b65792d31035400000000000000000000000000000000"},
	{"reply", "a557070500000021ac0217636f72653a20646561646c696e6520657863656564656402020701760302"},
	{"batch", "a5570709000000910400000028ad020553746f72650367657400000207056b65792d310354000000000000000000000000000000000500000021ac0217636f72653a20646561646c696e65206578636565646564020207017603020a00000005818cee891a0b0000002f290446656564046c69737403626f6280ade20420020706707265666978031463000000000000000200000001000000"},
	{"cancel", "a557070a00000005818cee891a"},
	{"stream-open", "a557070b0000002f290446656564046c69737403626f6280ade20420020706707265666978031463000000000000000200000001000000"},
	{"stream-chunk", "a557070c0000000a290307066974656d2d33"},
	{"stream-credit", "a557070d000000022908"},
	{"stream-end", "a557070e000000072904626f6f6d01"},
	{"gossip", "a557070f0000004f02026e310e3132372e302e302e313a37303031035b013fe8000000000000020553746f7265413312d000000000026e320546726f6e74000000000000000000026e3300000003000000000000000000"},
	{"replicate", "a5570710000000170b0553746f72652a0e736e617073686f742d6279746573"},
	{"replicate-ack", "a55707110000000d0b0553746f72652a0462757379"},
	{"migrate", "a557070600000030030553746f7265024b56010c737461746566756c6e65737308737461746566756c400000000000000001057374617465"},
	{"migrate-ack", "a55707070000000603046e6f7065"},
	{"announce", "a557070800000007010553746f7265"},
}

// TestGoldenFrames pins the v7 frame format byte for byte.
func TestGoldenFrames(t *testing.T) {
	args := []any{"k", 2, int64(-9), uint64(7), 3.5, true, nil, []byte{1, 2}, 250 * time.Millisecond, []any{"x"}}
	raw, err := AppendValues(nil, []any{"key-1", 42})
	if err != nil {
		t.Fatal(err)
	}
	call := Call{Corr: 300, Component: "Store", Op: "get", Principal: "alice", DeadlineNanos: 1_500_000,
		Args: args, Trace: 0x1122334455667788, Span: 0x0000000500000003}
	rawCall := Call{Corr: 301, Component: "Store", Op: "get", RawArgs: raw}
	reply := Reply{Corr: 300, Err: "core: deadline exceeded", Kind: KindDeadline, Results: []any{"v", 1}}
	cancel := Cancel{Corr: 7_000_000_001}
	open := StreamOpen{Corr: 41, Component: "Feed", Op: "list", Principal: "bob", DeadlineNanos: 5_000_000,
		Window: 32, Args: []any{"prefix", 10}, Trace: 99, Span: 0x100000002}
	encoders := map[string]func(e *Encoder) error{
		"hello": func(e *Encoder) error {
			return send(e, FrameHello, Hello{Node: "n1", System: "Shop", Components: []string{"Front", "Store"},
				MaxVersion: Version, Addr: "127.0.0.1:7001"})
		},
		"welcome": func(e *Encoder) error {
			return send(e, FrameWelcome, Hello{Node: "n2", System: "Shop", Components: []string{"Cart"},
				MaxVersion: Version, Addr: "127.0.0.1:7002"})
		},
		"call":     func(e *Encoder) error { return send(e, FrameCall, call) },
		"call-raw": func(e *Encoder) error { return send(e, FrameCall, rawCall) },
		"reply":    func(e *Encoder) error { return send(e, FrameReply, reply) },
		"batch": func(e *Encoder) error {
			if err := errors.Join(add(e, FrameCall, rawCall), add(e, FrameReply, reply),
				add(e, FrameCancel, cancel), add(e, FrameStreamOpen, open)); err != nil {
				return err
			}
			return e.Flush()
		},
		"cancel":      func(e *Encoder) error { return send(e, FrameCancel, cancel) },
		"stream-open": func(e *Encoder) error { return send(e, FrameStreamOpen, open) },
		"stream-chunk": func(e *Encoder) error {
			return send(e, FrameStreamChunk, StreamChunk{Corr: 41, Seq: 3, Item: "item-3"})
		},
		"stream-credit": func(e *Encoder) error { return send(e, FrameStreamCredit, StreamCredit{Corr: 41, Credit: 8}) },
		"stream-end": func(e *Encoder) error {
			return send(e, FrameStreamEnd, StreamEnd{Corr: 41, Err: "boom", Kind: KindAppError})
		},
		"gossip": func(e *Encoder) error {
			return send(e, FrameGossip, Gossip{Members: []GossipMember{
				{Node: "n1", Addr: "127.0.0.1:7001", Incarnation: 3, Version: 91, Status: GossipAlive, Load: 0.75,
					Comps: []GossipComp{{Name: "Store", Load: 1.25e6, Follower: "n2"}, {Name: "Front"}}},
				{Node: "n3", Status: GossipDead},
			}})
		},
		"replicate": func(e *Encoder) error {
			return send(e, FrameReplicate, Replicate{Corr: 11, Component: "Store", Seq: 42, State: []byte("snapshot-bytes")})
		},
		"replicate-ack": func(e *Encoder) error {
			return send(e, FrameReplicateAck, ReplicateAck{Corr: 11, Component: "Store", Seq: 42, Err: "busy"})
		},
		"migrate": func(e *Encoder) error {
			// One property only: map order would make a longer list's bytes vary.
			return send(e, FrameMigrate, Migrate{Corr: 3, Component: "Store", Implements: "KV",
				Properties: map[string]string{"statefulness": "stateful"}, CPU: 2, HasState: true, State: []byte("state")})
		},
		"migrate-ack": func(e *Encoder) error { return send(e, FrameMigrateAck, MigrateAck{Corr: 3, Err: "nope"}) },
		"announce":    func(e *Encoder) error { return send(e, FrameAnnounce, Announce{Add: true, Component: "Store"}) },
	}
	if len(encoders) != len(goldenFrames) {
		t.Fatalf("%d encoders for %d golden frames", len(encoders), len(goldenFrames))
	}
	for _, g := range goldenFrames {
		var buf bytes.Buffer
		if err := encoders[g.name](NewEncoder(&buf)); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != g.hex {
			t.Errorf("%s frame changed:\n got  %s\n want %s", g.name, got, g.hex)
			continue
		}
		typ, _, err := NewDecoder(&buf).Next()
		if err != nil || typ.String() != g.name && !(typ == FrameCall && g.name == "call-raw") {
			t.Errorf("%s: decodes as %v, %v", g.name, typ, err)
		}
	}
}
