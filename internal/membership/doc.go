// Package membership defines the data model shared by every membership
// protocol in this repository (#5 in DESIGN.md's system inventory): node
// identities, the per-node service description carried in heartbeats, and
// the yellow-page Directory each node maintains.
//
// The paper's membership service publishes, for every cluster node, its
// aliveness plus relatively stable information — application service name,
// partition ID, machine configuration — and consumers query the directory
// with regular expressions over service name and partition list
// (lookup_service in Fig. 9). Dynamic load information is explicitly out
// of scope of the membership protocol itself (internal/loadinfo layers it
// above).
//
// Key types:
//
//   - NodeID and MemberInfo: a node's identity and its published record
//     (incarnation, version, liveness beat, ServiceDecl list, attributes).
//   - Directory: the yellow page, stored in a node-ID-indexed slab of
//     entries held by value (a *Entry from Get or Range is valid only
//     until the directory's next mutation). Upsert merges received records by
//     (incarnation, version, beat) precedence; Remove tombstones departed
//     nodes against stale re-addition; Expired implements heartbeat
//     timeouts; Lookup answers the paper's regex + partition-spec queries;
//     SetObserver delivers Event notifications (join/leave/change) that
//     the experiments' detection/convergence recorders hook.
//   - Origin: how an entry was learned (direct heartbeat vs relayed by a
//     leader), which determines its lifetime rules under the paper's
//     Timeout Protocol.
package membership
