// Package cluster is the distribution plane: it turns a single-process
// core.System into one node of a real multi-process cluster connected over
// TCP (DESIGN.md §6). The paper's motivating scenario — services "deployed
// optimally on network equipments … reconfigured automatically according to
// user's mobility" — needs components in separate failure domains; this
// package provides the node runtime: a listener, peer links speaking the
// internal/wire frame protocol, heartbeat failure detection, gateway
// endpoints that make remote components reachable at their unchanged bus
// address, and the cross-node half of live migration.
//
// Location transparency is the design invariant: a component hosted on a
// peer keeps its canonical bus address (core.ComponentAddress), behind
// which a gateway endpoint forwards requests over the peer link. Every
// adaptation mechanism attached on the caller side — connector filters,
// woven aspects, FLO rules, interceptors, regions — applies to remote calls
// unchanged, because nothing between the caller and the gateway knows the
// provider is elsewhere.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Defaults for Options.
const (
	DefaultHeartbeat   = 250 * time.Millisecond
	DefaultFailAfter   = 4 * DefaultHeartbeat
	defaultDialTimeout = 5 * time.Second
	writeTimeout       = 10 * time.Second
	handshakeTimeout   = 5 * time.Second
	gatewayMailbox     = 4096
)

// Cluster errors.
var (
	ErrClosed        = errors.New("cluster: node closed")
	ErrUnknownPeer   = errors.New("cluster: unknown peer")
	ErrDuplicatePeer = errors.New("cluster: peer already linked")
	ErrSystemName    = errors.New("cluster: peer runs a different architecture")
)

// Options configures a cluster node.
type Options struct {
	// Node is this node's id; peers address it by this name and Migrate
	// recognizes it as a migration target. Required.
	Node string
	// Listen is the TCP listen address (default "127.0.0.1:0").
	Listen string
	// Heartbeat is the beacon interval per peer link (default 250ms).
	Heartbeat time.Duration
	// FailAfter is the silence threshold after which a peer is declared
	// down (default 4×Heartbeat). Any received frame counts as liveness.
	FailAfter time.Duration
	// MigrateTimeout bounds the wait for a peer's adoption ack (default 30s).
	MigrateTimeout time.Duration
	// DialTimeout bounds Join dials (default 5s).
	DialTimeout time.Duration
	// Logf, when set, receives diagnostic lines (dropped frames, late
	// replies); nil discards them.
	Logf func(format string, args ...any)
	// Seeds lists addresses of existing cluster members. The node dials
	// them at start and keeps retrying while it has no link at all; one
	// reachable seed suffices — gossip then teaches it the rest of the
	// cluster and the mesh completes itself through auto-dial.
	Seeds []string
	// Advertise is the address gossiped for other members to dial this
	// node (default: the actual listen address). Set it when the listen
	// address is not reachable as-is (NAT, 0.0.0.0 binds).
	Advertise string
	// SuspectAfter is the refute window: how long a member stays suspect
	// after its link dies before the failure detector declares it dead and
	// fires EvPeerDown (default FailAfter). Fresh gossip through any other
	// path clears the suspicion within this window.
	SuspectAfter time.Duration
	// StandbyTTL bounds the age of a warm standby snapshot at promotion
	// time (default 1 minute): an older snapshot is treated as absent and
	// failover takes the lossy path with an explicit EvStateLost.
	StandbyTTL time.Duration
}

// Node is one cluster member: a core.System plus its links to peers.
type Node struct {
	sys  *core.System
	id   string
	opts Options
	ln   net.Listener

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	peers  map[string]*peer
	owners map[string]string // component -> hosting peer id
	// ownersAt records when each component's ownership last changed through
	// an authoritative path (handshake, announce, migration rebind, local
	// adoption). Gossip-learned claims are refused while the record is
	// fresh: a just-migrated-away host keeps advertising the component for
	// up to its load-meter cache window, and without the timestamp that
	// stale claim would flip ownership back and misroute new calls.
	ownersAt map[string]time.Time
	gateways map[string]*gateway
	blocked  map[string]bool // peers refused at handshake (partition testing)
	repl     *Replicator     // outbound replication loop, nil until started
	closed   bool

	// membership is the gossip view, meter the local load signal feeding
	// it; both exist from Start (gossip runs on every link regardless of
	// whether a placer or replicator was started).
	membership *membership
	meter      *loadMeter

	// standbys holds warm snapshots shipped by peers' replicators; the
	// intake is always on (see handleReplicate).
	smu      sync.Mutex
	standbys map[string]standby

	// inflight maps a caller-side (src, corr) to the wire call it became,
	// so a bus-level cancel arriving at a gateway can revoke the matching
	// remote call (see cancelForward).
	imu      sync.Mutex
	inflight map[callKey]remoteRef

	// Egress coalescing counters across all links (see BatchStats).
	batchWrites atomic.Uint64
	batchFrames atomic.Uint64
	// shedGateway counts requests shed at this node's gateways before
	// crossing the wire: expired in a gateway mailbox's EDF lane, expired
	// at forward time, or expired in the egress queue (see ShedStats).
	shedGateway atomic.Uint64
}

// callKey identifies a caller-side in-flight request: the caller's reply
// address plus its bus correlation id.
type callKey struct {
	src  bus.Address
	corr uint64
}

// remoteRef locates the wire call a forwarded request became.
type remoteRef struct {
	p    *peer
	corr uint64
}

// gateway is a forwarding endpoint occupying a remote component's canonical
// bus address.
type gateway struct {
	comp   string
	ep     *bus.Endpoint
	cancel context.CancelFunc
}

// Start turns sys into a cluster node: it listens on opts.Listen, registers
// the cross-node migration hook, and parks requests toward components the
// system declared Remote until their hosting peer links up. The system
// should already be running (or be started shortly after).
func Start(sys *core.System, opts Options) (*Node, error) {
	if opts.Node == "" {
		return nil, errors.New("cluster: Options.Node is required")
	}
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	if opts.FailAfter <= 0 {
		opts.FailAfter = 4 * opts.Heartbeat
	}
	if opts.MigrateTimeout <= 0 {
		opts.MigrateTimeout = 30 * time.Second
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = defaultDialTimeout
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = opts.FailAfter
	}
	if opts.StandbyTTL <= 0 {
		opts.StandbyTTL = time.Minute
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	if opts.Advertise == "" {
		opts.Advertise = ln.Addr().String()
	}
	n := &Node{
		sys:      sys,
		id:       opts.Node,
		opts:     opts,
		ln:       ln,
		peers:    map[string]*peer{},
		owners:   map[string]string{},
		ownersAt: map[string]time.Time{},
		gateways: map[string]*gateway{},
		blocked:  map[string]bool{},
		standbys: map[string]standby{},
		inflight: map[callKey]remoteRef{},
	}
	n.membership = newMembership(n, opts.Advertise)
	n.meter = newLoadMeter(opts.Heartbeat / 2)
	n.ctx, n.cancel = context.WithCancel(context.Background())
	// Spans recorded from here on carry the cluster identity as their node.
	sys.SetNodeName(opts.Node)

	// Requests toward declared-remote components park at their (otherwise
	// endpoint-less) address until the hosting peer links and a gateway
	// attaches — early traffic waits instead of erroring.
	for _, comp := range sys.Remotes() {
		sys.Bus().PauseRequests(core.ComponentAddress(comp))
	}
	sys.SetMigrator(n.migrateHook)

	n.wg.Add(2)
	go n.acceptLoop()
	go n.watchdogLoop()
	if len(opts.Seeds) > 0 {
		n.wg.Add(1)
		go n.seedLoop()
	}
	return n, nil
}

// seedLoop dials the seed list until the node holds at least one link, then
// keeps watching: if every link is ever lost (full partition, every peer
// restarted) it resumes dialing, so a node rejoins the cluster without
// operator action. Gossip takes over from the first successful link.
func (n *Node) seedLoop() {
	defer n.wg.Done()
	try := func() {
		for _, addr := range n.opts.Seeds {
			if addr == n.opts.Advertise || addr == n.Addr() {
				continue // a node may appear in its own seed list
			}
			if len(n.Peers()) > 0 {
				return
			}
			if err := n.Join(addr); err != nil {
				n.opts.Logf("cluster %s: seed %s: %v", n.id, addr, err)
			}
		}
	}
	try()
	t := time.NewTicker(2 * n.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
			if len(n.Peers()) == 0 {
				try()
			}
		}
	}
}

// ID returns this node's id.
func (n *Node) ID() string { return n.id }

// Addr returns the actual listen address (useful with ":0").
func (n *Node) Addr() string { return n.ln.Addr().String() }

// System returns the node's underlying system.
func (n *Node) System() *core.System { return n.sys }

// Peers returns the ids of currently linked peers.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.peers))
	for id := range n.peers {
		out = append(out, id)
	}
	return out
}

// Owner reports which peer hosts a component ("" when unknown or local).
func (n *Node) Owner(component string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.owners[component]
}

// Join dials a peer, performs the handshake and links it. Joining an
// already-linked peer is an error; joining a node running a different
// architecture is refused.
func (n *Node) Join(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, n.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("cluster: join %s: %w", addr, err)
	}
	enc := wire.NewEncoder(conn)
	seen := new(atomic.Int64)
	dec := wire.NewDecoder(&livenessReader{r: conn, seen: seen})
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := writeFrame(enc, wire.FrameHello, n.appendHello); err != nil {
		conn.Close()
		return fmt.Errorf("cluster: join %s: %w", addr, err)
	}
	t, body, err := dec.Next()
	if err == nil && t != wire.FrameWelcome {
		err = fmt.Errorf("got %v frame, want welcome", t)
	}
	var h wire.Hello
	if err == nil {
		h, err = wire.ParseHello(body)
	}
	if err != nil {
		conn.Close()
		return fmt.Errorf("cluster: join %s: handshake: %w", addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return n.addPeer(conn, enc, dec, h, seen)
}

// appendHello appends this node's handshake payload, the body of its hello
// or welcome.
func (n *Node) appendHello(dst []byte) ([]byte, error) {
	return wire.AppendHello(dst, wire.Hello{Node: n.id, System: n.sys.Name(),
		Components: n.sys.LocalComponents(), MaxVersion: wire.Version, Addr: n.opts.Advertise}), nil
}

// Members returns the gossip membership view, this node included, sorted by
// id. Entries for dead members are retained — they carry the component and
// follower assignments failover needs.
func (n *Node) Members() []Member {
	return n.membership.members()
}

// Member returns one membership entry by id.
func (n *Node) Member(id string) (Member, bool) {
	return n.membership.member(id)
}

// Block refuses future links from peer id and severs any current one —
// a test helper for partition scenarios. The severed link follows the
// normal failure-detection path (suspect, then dead after the refute
// window), exactly as a real partition would.
func (n *Node) Block(id string) {
	n.mu.Lock()
	n.blocked[id] = true
	p := n.peers[id]
	n.mu.Unlock()
	if p != nil {
		n.peerDown(p, "blocked")
	}
}

// Unblock lifts a Block; gossip-driven auto-dial re-links the two sides.
func (n *Node) Unblock(id string) {
	n.mu.Lock()
	delete(n.blocked, id)
	n.mu.Unlock()
}

// BatchStats reports the egress coalescing counters across all links:
// writes is the number of socket writes the egress path issued, frames the
// number of frames they carried — calls, replies, cancels, the stream
// plane's opens, chunks, credits and ends, and replication frames.
// frames/writes is the achieved batching factor; a healthy cross-node
// stream drives it well above the unary baseline because consecutive chunks
// pack into single writes.
func (n *Node) BatchStats() (writes, frames uint64) {
	return n.batchWrites.Load(), n.batchFrames.Load()
}

// ShedStats reports how many requests this node's gateways shed before they
// crossed the wire: expired in a gateway mailbox's deadline lane, found
// expired at forward time, or expired while queued in an egress batch.
// Stream opens count here exactly like unary calls — one shed open is one
// unit, regardless of how many items the stream would have carried. Under
// overload these sheds are the cluster edge's contribution to goodput — work
// whose caller already gave up never spends a network round trip.
func (n *Node) ShedStats() (shed uint64) {
	return n.shedGateway.Load()
}

// Telemetry returns the node's unified metrics snapshot: the system-level
// sections filled by core.System.Telemetry plus the distribution-plane
// sections only this layer can see — gateway sheds and one LinkState per
// peer (wire version, per-link batching counters, heartbeat liveness).
// This is the struct the aasd -obs /metrics endpoint serves.
func (n *Node) Telemetry() telemetry.Snapshot {
	snap := n.sys.Telemetry()
	snap.GatewayShed = n.shedGateway.Load()
	now := time.Now().UnixNano()
	n.mu.Lock()
	ids := make([]string, 0, len(n.peers))
	for id := range n.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := n.peers[id]
		ls := telemetry.LinkState{
			Peer:          id,
			WireVersion:   wire.Version,
			BatchWrites:   p.batchWrites.Load(),
			BatchFrames:   p.batchFrames.Load(),
			LastSeenNanos: p.lastSeen.Load(),
			Down:          p.down.Load(),
		}
		if ls.LastSeenNanos == 0 {
			ls.LastSeenNanos, ls.SinceSeenNanos = -1, -1
		} else {
			ls.SinceSeenNanos = now - ls.LastSeenNanos
		}
		snap.Links = append(snap.Links, ls)
	}
	repl := n.repl
	n.mu.Unlock()

	for _, m := range n.Members() {
		ms := telemetry.MemberState{
			ID: m.ID, Addr: m.Addr, Status: m.Status.String(),
			Incarnation: m.Incarnation, Version: m.Version, Load: m.Load,
		}
		for _, c := range m.Components {
			ms.Components = append(ms.Components, c.Name)
		}
		snap.Members = append(snap.Members, ms)
	}

	if repl != nil {
		repl.mu.Lock()
		comps := make([]string, 0, len(repl.states))
		for comp := range repl.states {
			comps = append(comps, comp)
		}
		sort.Strings(comps)
		for _, comp := range comps {
			st := repl.states[comp]
			rs := telemetry.ReplicationState{
				Component: comp, Follower: st.follower,
				ShippedSeq: st.seq, AckedSeq: st.ackedSeq,
				Bytes: st.bytes, LastError: st.lastErr,
			}
			if st.ackedAt == 0 {
				rs.AckAgeNanos = -1
			} else {
				rs.AckAgeNanos = now - st.ackedAt
			}
			snap.Replication = append(snap.Replication, rs)
		}
		repl.mu.Unlock()
	}

	n.smu.Lock()
	scomps := make([]string, 0, len(n.standbys))
	for comp := range n.standbys {
		scomps = append(scomps, comp)
	}
	sort.Strings(scomps)
	for _, comp := range scomps {
		sb := n.standbys[comp]
		snap.Standbys = append(snap.Standbys, telemetry.StandbyState{
			Component: comp, Origin: sb.origin, Seq: sb.seq,
			Bytes: len(sb.state), AgeNanos: now - sb.at.UnixNano(),
		})
	}
	n.smu.Unlock()
	return snap
}

// acceptLoop links inbound peers.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handshakeInbound(conn)
		}()
	}
}

// handshakeInbound answers a dialer's hello with a welcome and links it. A
// refused handshake (wrong version, wrong architecture, garbage) closes the
// connection and logs why.
func (n *Node) handshakeInbound(conn net.Conn) {
	enc := wire.NewEncoder(conn)
	seen := new(atomic.Int64)
	dec := wire.NewDecoder(&livenessReader{r: conn, seen: seen})
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	t, body, err := dec.Next()
	if err == nil && t != wire.FrameHello {
		err = fmt.Errorf("got %v frame, want hello", t)
	}
	var h wire.Hello
	if err == nil {
		h, err = wire.ParseHello(body)
	}
	if err == nil && h.System != n.sys.Name() {
		err = fmt.Errorf("%w: %q vs %q", ErrSystemName, h.System, n.sys.Name())
	}
	if err == nil {
		err = writeFrame(enc, wire.FrameWelcome, n.appendHello)
	}
	if err != nil {
		conn.Close()
		n.opts.Logf("cluster %s: inbound handshake from %s refused: %v", n.id, conn.RemoteAddr(), err)
		return
	}
	_ = conn.SetDeadline(time.Time{})
	if err := n.addPeer(conn, enc, dec, h, seen); err != nil {
		n.opts.Logf("cluster %s: inbound link from %s rejected: %v", n.id, h.Node, err)
	}
}

// addPeer registers the link and starts its pumps. seen is the liveness
// cell shared with the decoder's livenessReader.
func (n *Node) addPeer(conn net.Conn, enc *wire.Encoder, dec *wire.Decoder, h wire.Hello, seen *atomic.Int64) error {
	if h.System != n.sys.Name() {
		conn.Close()
		return fmt.Errorf("%w: %q vs %q", ErrSystemName, h.System, n.sys.Name())
	}
	if h.Node == n.id {
		conn.Close()
		return fmt.Errorf("cluster: %s dialed itself", n.id)
	}
	n.mu.Lock()
	refused := n.blocked[h.Node]
	n.mu.Unlock()
	if refused {
		conn.Close()
		return fmt.Errorf("cluster: peer %s is blocked", h.Node)
	}
	p := newPeer(n, h.Node, conn, enc, dec, seen)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	if _, dup := n.peers[h.Node]; dup {
		n.mu.Unlock()
		conn.Close()
		return fmt.Errorf("%w: %s", ErrDuplicatePeer, h.Node)
	}
	n.peers[h.Node] = p
	n.mu.Unlock()

	for _, comp := range h.Components {
		n.learnOwner(comp, h.Node)
	}
	n.membership.linkUp(h.Node, h.Addr, h.Components)
	n.sys.Events().Emit(core.Event{Kind: core.EvPeerUp, At: n.sys.Now(),
		Component: h.Node, Detail: conn.RemoteAddr().String()})
	p.start()
	return nil
}

// watchdogLoop declares peers down after FailAfter of silence, promotes
// suspicions that outlived their refute window to dead, and dials alive
// members gossip says we should be linked to but are not.
func (n *Node) watchdogLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
			cutoff := time.Now().Add(-n.opts.FailAfter).UnixNano()
			n.mu.Lock()
			stale := make([]*peer, 0, 1)
			for _, p := range n.peers {
				if p.lastSeen.Load() < cutoff {
					stale = append(stale, p)
				}
			}
			n.mu.Unlock()
			for _, p := range stale {
				n.peerDown(p, "heartbeat timeout")
			}
			for _, id := range n.membership.sweep(n.opts.SuspectAfter) {
				n.memberDead(id, "suspicion unrefuted")
			}
			for _, tgt := range n.membership.dialCandidates(n.linkedIDs()) {
				n.dialMember(tgt)
			}
		}
	}
}

// dialMember joins a gossip-discovered member in the background.
func (n *Node) dialMember(t dialTarget) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		if err := n.Join(t.addr); err != nil {
			n.opts.Logf("cluster %s: auto-dial %s (%s): %v", n.id, t.id, t.addr, err)
		}
	}()
}

// memberDead emits the converged failure verdict for one member: EvPeerDown
// on the RAML stream, which failover triggers react to.
func (n *Node) memberDead(id, reason string) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	n.opts.Logf("cluster %s: member %s dead (%s)", n.id, id, reason)
	n.sys.Events().Emit(core.Event{Kind: core.EvPeerDown, At: n.sys.Now(),
		Component: id, Detail: reason})
}

// handleGossip merges one received view and applies its side effects:
// EvPeerDown for members the merge declared dead, ownership learned from
// alive entries, and dials toward discovered members.
func (n *Node) handleGossip(p *peer, g wire.Gossip) {
	eff := n.membership.merge(g, n.linkedIDs())
	for _, id := range eff.newlyDead {
		n.memberDead(id, "gossip: declared dead by "+p.id)
	}
	// Gossiped self entries are built from a cached load meter, so for up to
	// that cache window a host that just migrated a component away (or had
	// it adopted out from under it) still advertises it. A claim that
	// contradicts an ownership record younger than the stale-claim window is
	// therefore presumed stale and dropped; once the window passes, only the
	// real owner keeps claiming the component and the view converges.
	staleClaim := 2 * n.opts.Heartbeat
	for _, cl := range eff.claims {
		if cl.owner == n.id {
			continue
		}
		n.mu.Lock()
		known := n.owners[cl.comp] == cl.owner
		fresh := time.Since(n.ownersAt[cl.comp]) < staleClaim
		n.mu.Unlock()
		if !known && !fresh {
			n.learnOwner(cl.comp, cl.owner)
		}
	}
	for _, tgt := range eff.dialable {
		n.dialMember(tgt)
	}
}

// peerDown tears a peer link down exactly once: the connection closes, its
// pending remote calls fail fast (the caller sees an error, not a hung
// timeout), waiting migrations abort. A lost link only makes the member
// suspect — EvPeerDown waits for converged suspicion (sweep or merged
// gossip) so one flaky link cannot trigger cluster-wide failover. Gateways
// toward the dead peer stay attached — new calls get immediate error
// replies until an announce or adoption repoints or replaces them.
func (n *Node) peerDown(p *peer, reason string) {
	if !p.down.CompareAndSwap(false, true) {
		return
	}
	p.conn.Close()
	n.mu.Lock()
	if n.peers[p.id] == p {
		delete(n.peers, p.id)
	}
	closed := n.closed
	n.mu.Unlock()
	p.failAll("cluster: peer " + p.id + " down: " + reason)
	if closed {
		return
	}
	n.membership.suspect(p.id)
	n.opts.Logf("cluster %s: link to %s lost (%s), member suspect", n.id, p.id, reason)
}

// Close stops the node: the migration hook is removed, the listener and all
// peer links close, gateways detach (their addresses keep parking traffic),
// and every pump goroutine exits. The underlying system keeps running;
// stopping it is the caller's job.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	gws := make([]*gateway, 0, len(n.gateways))
	for _, g := range n.gateways {
		gws = append(gws, g)
	}
	n.gateways = map[string]*gateway{}
	n.mu.Unlock()

	n.sys.SetMigrator(nil)
	n.cancel()
	n.ln.Close()
	for _, p := range peers {
		n.peerDown(p, "node closed")
	}
	for _, g := range gws {
		n.detachGateway(g)
	}
	n.wg.Wait()
}
