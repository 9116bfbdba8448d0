package core

import (
	"repro/internal/membership"
	"repro/internal/topology"
	"repro/internal/wire"
)

// topoHost converts a protocol node ID to the transport host ID; they are
// the same identity by construction (the paper uses the IP address for
// both).
func topoHost(id membership.NodeID) topology.HostID { return topology.HostID(id) }

// bootstrap runs the Bootstrap Protocol for one level: having listened to
// the channel for a heartbeat period, find the member whose heartbeats
// carry the leader flag and pull its directory. Retries every heartbeat
// interval until a leader is found or we become one ourselves.
func (n *Node) bootstrap(level int) {
	if !n.running {
		return
	}
	lv := n.levels[level]
	if !lv.joined || lv.bootstrapped || lv.isLeader {
		return
	}
	leader := membership.NoNode
	for id, ms := range lv.members {
		if ms.leader && (leader == membership.NoNode || id < leader) {
			leader = id
		}
	}
	if leader != membership.NoNode {
		lv.bootstrapFrom = leader
		n.ep.Unicast(topoHost(leader), wire.Encode(&wire.BootstrapRequest{From: n.id, Level: uint8(level)}))
	}
	// Retry until a directory reply lands (the request or reply may be
	// lost, or no leader may be elected yet).
	n.eng.Schedule(2*n.cfg.HeartbeatInterval, func() { n.bootstrap(level) })
}

// onBootstrapRequest serves a joining node: reply with our full directory
// and ask for the joiner's in return ("the group leader also asks the new
// node for the membership information that it is aware of in case that the
// new node is also a group leader from a lower level group").
func (n *Node) onBootstrapRequest(m *wire.BootstrapRequest) {
	n.stats.BootstrapsServed++
	n.ep.Unicast(topoHost(m.From), wire.EncodeDirectory(n.id, true, n.dir))
}

// onSyncRequest serves a full directory to a peer that detected an
// unrecoverable update loss.
func (n *Node) onSyncRequest(m *wire.SyncRequest) {
	n.ep.Unicast(topoHost(m.From), wire.EncodeDirectory(n.id, false, n.dir))
}

// onDirectoryMsg merges a full snapshot (bootstrap reply, sync reply, or a
// new leader's in-group publication). level is the channel it arrived on,
// or -1 for unicast.
func (n *Node) onDirectoryMsg(level int, m *wire.DirectoryMsg) {
	if m.From == n.id {
		return
	}
	if level < 0 {
		// A unicast directory reply completes any bootstrap pending on
		// this sender.
		for _, lv := range n.levels {
			if lv.joined && !lv.bootstrapped && lv.bootstrapFrom == m.From {
				lv.bootstrapped = true
			}
		}
	}
	lvl := level
	if lvl < 0 {
		lvl = 0
	}
	now := n.eng.Now()
	// Only a leader propagates what it learns, and merging cannot change
	// leadership, so followers skip collecting the joins.
	leader := n.anyLeader()
	var newlyLearned []membership.MemberInfo
	var corrections []wire.Update
	n.dir.Reserve(m.MaxNode())
	for it := m.Records(); it.Next(); {
		info := it.Info()
		if info.Node == n.id {
			continue
		}
		if info.Node < 0 {
			// An impossible identity cannot be a member; dropping the entry
			// (rather than the whole snapshot) keeps the merge useful.
			n.stats.PacketsRejected++
			n.ep.NoteReject()
			continue
		}
		if n.dir.TombstoneActive(info, now) {
			// The publisher still believes in a node we removed; send a
			// targeted correction so its stale entry does not linger.
			n.updCounter++
			corrections = append(corrections, wire.Update{
				ID:      wire.UpdateID{Origin: n.id, Counter: n.updCounter},
				Kind:    wire.ULeave,
				Subject: info.Node,
			})
			continue
		}
		if n.dir.Upsert(info, membership.OriginRelayed, lvl, m.From, now) && leader {
			newlyLearned = append(newlyLearned, info)
		}
	}
	if len(corrections) > 0 {
		// Seq 0 keeps these out-of-band corrections out of the sender's
		// loss-detected update stream; receivers apply them by UID.
		n.ep.Unicast(topoHost(m.From), wire.Encode(&wire.UpdateMsg{
			Sender: n.id, Seq: 0, Updates: corrections,
		}))
	}
	// If we lead any group, propagate what we just learned: this is how a
	// joining leader's whole subtree becomes known cluster-wide ("the
	// result is then propagated to all group members using the update
	// protocol").
	for _, info := range newlyLearned {
		n.originateUpdate(wire.UJoin, info.Node, info, -1)
	}
	if m.Ask {
		n.ep.Unicast(topoHost(m.From), wire.EncodeDirectory(n.id, false, n.dir))
	}
}
