// Tests for the one version rule of the peer protocol: a handshake from a
// peer below wire.Version fails with wire.ErrBadVersion on either side, and
// no link comes up. The old peer is a raw TCP conversation that stamps its
// frames (or its hello offer) with version 6.
package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// oldHandshakes are the two ways a pre-v7 peer can present itself: a frame
// header below Version (what every older build sends) and a current header
// carrying a hello that offers less than Version.
var oldHandshakes = []struct {
	name          string
	header, offer byte
}{
	{"header v6", 6, 6},
	{"offer v6", wire.Version, 6},
}

// rawFrame encodes one frame by hand with the given header version.
func rawFrame(version byte, t wire.FrameType, body []byte) []byte {
	hdr := []byte{0xA5, 0x57, version, byte(t), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(body)))
	return append(hdr, body...)
}

// logSink collects a node's Logf lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// has reports whether some line contains every part.
func (l *logSink) has(parts ...string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
next:
	for _, line := range l.lines {
		for _, p := range parts {
			if !strings.Contains(line, p) {
				continue next
			}
		}
		return true
	}
	return false
}

// startLoneNode starts a one-node cluster whose log lines land in the sink.
func startLoneNode(t *testing.T) (*Node, *logSink) {
	t.Helper()
	logs := &logSink{}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	h, err := StartHarness(ctx, Spec{
		ADL:       clusterADL,
		Nodes:     []string{"n1"},
		Placement: map[string]string{"Front": "n1", "Store": "n1"},
		Registry:  testRegistry,
		Cluster: func(node string) Options {
			o := fastCluster(node)
			o.Logf = logs.logf
			return o
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h.Node("n1"), logs
}

// TestClusterJoinRejectsOldPeer: a node dialing an old peer gets
// wire.ErrBadVersion from Join and links nothing.
func TestClusterJoinRejectsOldPeer(t *testing.T) {
	for _, tc := range oldHandshakes {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := startLoneNode(t)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				if _, _, err := wire.NewDecoder(conn).Next(); err != nil {
					return // the dialer's hello
				}
				welcome := wire.AppendHello(nil, wire.Hello{Node: "old", System: "Cluster",
					MaxVersion: tc.offer, Addr: ln.Addr().String()})
				_, _ = conn.Write(rawFrame(tc.header, wire.FrameWelcome, welcome))
				_, _ = io.Copy(io.Discard, conn) // until the dialer hangs up
			}()

			err = n.Join(ln.Addr().String())
			if !errors.Is(err, wire.ErrBadVersion) {
				t.Fatalf("Join: err = %v, want wire.ErrBadVersion", err)
			}
			if peers := n.Peers(); len(peers) != 0 {
				t.Fatalf("old peer linked: %v", peers)
			}
		})
	}
}

// TestClusterAcceptRejectsOldPeer: a node accepting an old peer's hello
// closes the connection without a welcome, links nothing, and logs why.
func TestClusterAcceptRejectsOldPeer(t *testing.T) {
	for _, tc := range oldHandshakes {
		t.Run(tc.name, func(t *testing.T) {
			n, logs := startLoneNode(t)
			conn, err := net.Dial("tcp", n.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			hello := wire.AppendHello(nil, wire.Hello{Node: "old", System: "Cluster",
				MaxVersion: tc.offer, Addr: conn.LocalAddr().String()})
			if _, err := conn.Write(rawFrame(tc.header, wire.FrameHello, hello)); err != nil {
				t.Fatal(err)
			}

			// The accepter hangs up without answering.
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if got, err := io.ReadAll(conn); err != nil || len(got) != 0 {
				t.Fatalf("accepter answered an old hello: %d bytes, err %v", len(got), err)
			}
			if peers := n.Peers(); len(peers) != 0 {
				t.Fatalf("old peer linked: %v", peers)
			}
			for deadline := time.Now().Add(2 * time.Second); !logs.has("refused", wire.ErrBadVersion.Error()); {
				if time.Now().After(deadline) {
					t.Fatal("no refusal with wire.ErrBadVersion logged")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
