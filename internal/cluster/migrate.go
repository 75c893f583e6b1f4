package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/adl"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// migrateHook is the core.Migrator registered on the system: it intercepts
// Migrate calls whose target names a live peer.
func (n *Node) migrateHook(component string, to netsim.NodeID) (bool, error) {
	p := n.livePeer(string(to))
	if p == nil {
		return false, nil // not a cluster peer; fall through to the topology path
	}
	return true, n.migrateTo(component, p)
}

// migrateTo runs the origin half of the cross-node migration protocol
// against a live peer (see core.MigrateOut for the sequence and its
// rollback guarantees).
func (n *Node) migrateTo(component string, p *peer) error {
	ship := func(h core.Handoff) error {
		corr := p.corr.Add(1)
		ack := make(chan string, 1)
		p.addMig(corr, ack)
		defer p.dropMig(corr)
		err := p.send(wire.FrameMigrate, func(dst []byte) ([]byte, error) {
			return wire.AppendMigrate(dst, wire.Migrate{
				Corr: corr, Component: h.Component,
				Implements: h.Decl.Implements, Properties: h.Decl.Properties,
				CPU: h.CPU, HasState: h.HasState, State: h.State,
			}), nil
		})
		if err != nil {
			return err
		}
		select {
		case msg := <-ack:
			if msg != "" {
				return errors.New(msg)
			}
			return nil
		case <-time.After(n.opts.MigrateTimeout):
			return fmt.Errorf("cluster: %s: adoption ack timed out", p.id)
		case <-n.ctx.Done():
			return ErrClosed
		}
	}
	rebind := func() error {
		n.mu.Lock()
		n.owners[component] = p.id
		n.ownersAt[component] = time.Now()
		n.mu.Unlock()
		return n.attachGateway(component)
	}
	return n.sys.MigrateOut(component, netsim.NodeID(p.id), ship, rebind)
}

// adopt runs the destination half: it swaps this node's gateway (if any)
// for a real instance built from the local registry. On failure the gateway
// is re-attached so forwarding toward the still-running origin resumes.
func (n *Node) adopt(decl adl.ComponentDecl, state []byte, hasState bool) error {
	removed := false
	err := n.sys.AdoptComponent(decl, state, hasState, func() {
		removed = n.removeGateway(decl.Name)
	})
	if err != nil && removed && !n.sys.HasComponent(decl.Name) {
		if aerr := n.attachGateway(decl.Name); aerr != nil {
			n.opts.Logf("cluster %s: re-attach gateway for %s: %v", n.id, decl.Name, aerr)
		}
	}
	return err
}

// AdoptLocal promotes a component currently served through a gateway to a
// local instance built from this node's registry — the failover path an
// EvPeerDown trigger uses when the hosting peer died. When this node holds
// a fresh warm-standby snapshot for the component (shipped by the dead
// host's replicator) the instance restarts from it — the warm promotion;
// without one the component restarts from its config default and a
// distinct EvStateLost marks the loss on the RAML stream, so operators and
// tests can tell a lossless failover from a lossy one.
func (n *Node) AdoptLocal(component string) error {
	decl, ok := n.sys.Config().Component(component)
	if !ok {
		return fmt.Errorf("cluster: adopt-local %s: not declared here", component)
	}
	sb, warm := n.takeStandby(component)
	var state []byte
	if warm {
		state = sb.state
	}
	if err := n.adopt(decl, state, warm); err != nil {
		// Ownership untouched: if the hosting peer is in fact alive, the
		// still-attached gateway keeps forwarding to it.
		if warm {
			// The snapshot was consumed from the table but not used; put it
			// back so a retry can still promote warm.
			n.smu.Lock()
			if _, exists := n.standbys[component]; !exists {
				n.standbys[component] = sb
			}
			n.smu.Unlock()
		}
		return err
	}
	n.mu.Lock()
	delete(n.owners, component)
	n.ownersAt[component] = time.Now()
	n.mu.Unlock()
	if warm {
		n.opts.Logf("cluster %s: promoted %s warm (seq %d, %d bytes)",
			n.id, component, sb.seq, len(sb.state))
	} else if _, serr := n.sys.SnapshotComponent(component); serr == nil {
		// Only a capturable (stateful) component adopted cold actually lost
		// anything; a stateless one restarts from nothing by design.
		n.sys.Events().Emit(core.Event{Kind: core.EvStateLost, At: n.sys.Now(),
			Component: component, Detail: "no warm standby: restarted from config default"})
	}
	n.announce(wire.Announce{Add: true, Component: component}, "")
	return nil
}

// announce broadcasts an ownership change to every linked peer except the
// named one.
func (n *Node) announce(a wire.Announce, except string) {
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for id, p := range n.peers {
		if id != except {
			peers = append(peers, p)
		}
	}
	n.mu.Unlock()
	for _, p := range peers {
		if err := p.send(wire.FrameAnnounce, func(dst []byte) ([]byte, error) {
			return wire.AppendAnnounce(dst, a), nil
		}); err != nil {
			n.opts.Logf("cluster %s: announce to %s: %v", n.id, p.id, err)
		}
	}
}

// handleAnnounce updates ownership from a peer's broadcast.
func (n *Node) handleAnnounce(p *peer, a wire.Announce) {
	if a.Add {
		n.learnOwner(a.Component, p.id)
		return
	}
	n.mu.Lock()
	if n.owners[a.Component] == p.id {
		delete(n.owners, a.Component)
		n.ownersAt[a.Component] = time.Now()
	}
	n.mu.Unlock()
}
