//! Per-mote state: agent slots, managers, and protocol sessions.

use std::collections::{HashMap, VecDeque};

use agilla_tuplespace::{ReactionRegistry, Tuple, TupleSpace};
use agilla_vm::AgentState;
use wsn_common::{AgentId, Location, NodeId};
use wsn_net::AcquaintanceList;
use wsn_radio::Frame;
use wsn_sim::{EventId, SimDuration, SimTime};

use crate::config::{
    AgillaConfig, CODE_BLOCKS, CODE_BLOCK_BYTES, MAX_AGENTS, REACTION_REGISTRY_BYTES,
    REACTION_REGISTRY_SLOTS, TUPLE_SPACE_BYTES,
};
use crate::migration::{MigrationImage, ReassemblyBuffer};
use crate::network::session::{CompletedCache, RetxState};
use crate::wire::{MigData, MigHeader, RtsReply, RtsRequest};

/// Why an agent is not currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentStatus {
    /// Runnable; the engine will schedule it round-robin.
    Ready,
    /// Executing `sleep`; wakes at the given time.
    Sleeping {
        /// Wake-up time.
        until: SimTime,
    },
    /// Executing `wait`; wakes when one of its reactions fires.
    Waiting,
    /// A blocking `in`/`rd` found no match; wakes on any local insertion.
    Blocked,
    /// Awaiting a remote tuple-space reply.
    AwaitingRemote {
        /// The pending operation id.
        op_id: u16,
    },
    /// Held by a migration sender session (clone originals and would-be
    /// movers awaiting the first-hop outcome).
    InMigration,
}

/// One occupied agent slot.
#[derive(Debug)]
pub struct AgentSlot {
    /// The agent's execution state.
    pub agent: AgentState,
    /// Why it is or isn't running.
    pub status: AgentStatus,
    /// Reactions that fired while the agent was busy; delivered before its
    /// next instruction.
    pub pending_reactions: VecDeque<(Tuple, u16)>,
    /// Instructions executed in the current engine slice.
    pub slice_used: u32,
}

impl AgentSlot {
    /// Creates a ready slot for `agent`.
    pub fn new(agent: AgentState) -> Self {
        AgentSlot {
            agent,
            status: AgentStatus::Ready,
            pending_reactions: VecDeque::new(),
            slice_used: 0,
        }
    }
}

/// A migration sender session: one hop's worth of acknowledged transfer.
#[derive(Debug)]
pub struct SenderSession {
    /// The packaged agent.
    pub image: MigrationImage,
    /// Precomputed data fragments.
    pub fragments: Vec<MigData>,
    /// The session header.
    pub header: MigHeader,
    /// Next fragment to send; `None` means the header is in flight.
    pub next_frag: Option<usize>,
    /// Link destination for this hop.
    pub next_hop: NodeId,
    /// Next-hop candidates already exhausted by retransmission (including,
    /// once failover triggers, the original `next_hop`). With
    /// `hop_failover` on, the session walks `next_hop_candidates` order
    /// skipping these before giving up.
    pub tried_hops: Vec<NodeId>,
    /// What resumes here when the session ends.
    pub resume: Resume,
    /// Shared-session-layer retransmission state for the in-flight message.
    pub retx: RetxState,
}

/// What a migration sender session resumes on its own mote.
#[derive(Debug)]
pub enum Resume {
    /// The slot holding a clone's paused original: condition 2 once the
    /// copy is dispatched, 0 if the session fails.
    Original(usize),
    /// A mover's state, or the agent a relay received: re-admitted here
    /// with condition 0 if the session fails.
    Held(AgentState),
}

/// A migration receiver session: reassembly plus the abort watchdog.
#[derive(Debug)]
pub struct ReceiverSession {
    /// Fragment reassembly state.
    pub buf: ReassemblyBuffer,
    /// The link-layer sender, for hop-by-hop acks.
    pub from: NodeId,
    /// End-to-end sessions route acks back to this origin instead.
    pub origin: Option<Location>,
    /// Last time a new fragment arrived (watchdog reference).
    pub last_progress: SimTime,
    /// The pending abort-check timer.
    pub abort_timer: Option<EventId>,
}

/// Initiator-side state of a pending remote tuple-space operation.
#[derive(Debug)]
pub struct PendingRemote {
    /// The request (kept for retransmission).
    pub request: RtsRequest,
    /// The waiting agent's slot.
    pub slot: usize,
    /// When the operation was issued (latency metric).
    pub issued_at: SimTime,
    /// First hop the request was last forwarded to (failover bookkeeping).
    pub last_hop: Option<NodeId>,
    /// First hops already exhausted by the full retransmission budget;
    /// with `hop_failover` on, resends skip these in candidate order.
    pub tried_hops: Vec<NodeId>,
    /// Shared-session-layer retransmission state (tries, the pending timeout
    /// timer, and the Fig. 10 first-attempt flag).
    pub retx: RetxState,
}

/// The server-side dedup key for a remote tuple-space operation: the
/// initiating node plus its op id. Keying on the origin *location* instead
/// would let ε-close initiators collide, and a bare op id wraps at 65 535 —
/// this pair, combined with the cache TTL, is wrap-safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteDedupKey {
    /// The initiating node.
    pub origin: NodeId,
    /// Its operation id.
    pub op_id: u16,
}

/// Reply path of a completed inbound migration session, cached so duplicate
/// messages can be re-acked after the session record itself is gone.
#[derive(Debug, Clone, Copy)]
pub struct MigDonePath {
    /// The link-layer sender (hop-by-hop ack path).
    pub from: NodeId,
    /// End-to-end sessions route acks to this origin instead.
    pub origin: Option<Location>,
}

/// A mote's protocol-session state: open migration and remote-op sessions,
/// plus the completed-exchange caches that answer duplicates. Only motes
/// that originate, relay or serve a protocol exchange ever hold one; a
/// [`Node`] creates it on the first write.
#[derive(Debug)]
pub struct Sessions {
    /// Outbound migration sessions by session id.
    pub(crate) send_sessions: HashMap<u16, SenderSession>,
    /// Inbound migration sessions by session id.
    pub(crate) recv_sessions: HashMap<u16, ReceiverSession>,
    /// Pending remote operations by op id.
    pub(crate) pending_remote: HashMap<u16, PendingRemote>,
    /// Recently served remote operations, for duplicate-request replies.
    /// TTL'd over the initiator's full retransmit window
    /// ([`AgillaConfig::remote_reply_ttl`]): a retransmitted request whose
    /// first execution already happened is answered from here rather than
    /// re-executed, which is what makes `rout` exactly-once.
    pub(crate) reply_cache: CompletedCache<RemoteDedupKey, RtsReply>,
    /// Recently completed inbound migration sessions. A data retransmission
    /// for one of these means the final ack was lost; re-acking from this
    /// cache stops the sender from declaring failure and resuming a
    /// duplicate of an agent that already arrived. Entries expire
    /// ([`AgillaConfig::migration_done_ttl`]) so a wrapped-around session id
    /// cannot match a stale record and black-hole a genuinely new migration.
    pub(crate) mig_done_cache: CompletedCache<u16, MigDonePath>,
}

impl Sessions {
    /// Empty session state, with the cache TTLs `config` sets.
    fn new(config: &AgillaConfig) -> Self {
        Sessions {
            send_sessions: HashMap::new(),
            recv_sessions: HashMap::new(),
            pending_remote: HashMap::new(),
            reply_cache: CompletedCache::new(config.remote_reply_ttl()),
            mig_done_cache: CompletedCache::new(config.migration_done_ttl()),
        }
    }
}

/// One simulated Agilla mote.
///
/// A mote pays only for what it does: agent slots exist from its first
/// admission on, and session state from its first protocol exchange, so
/// a beacon-field mote that never hosts, relays or serves anything holds
/// neither.
#[derive(Debug)]
pub struct Node {
    /// Simulation identity.
    pub id: NodeId,
    /// Physical location (= network address).
    pub loc: Location,
    /// The local tuple space.
    pub space: TupleSpace,
    /// The local reaction registry.
    pub registry: ReactionRegistry,
    /// One-hop neighbor table.
    pub acq: AcquaintanceList,
    /// Agent slots: empty until the first admission, which creates all
    /// [`MAX_AGENTS`] of them at once; never shrunk, so slot indices and
    /// both cursors behave as if the slots always existed.
    pub slots: Vec<Option<AgentSlot>>,
    /// Round-robin cursor over slots.
    pub rr_cursor: usize,
    /// Round-robin cursor for preemption victim selection: rotates over
    /// the slots so repeated evictions among equal-priority residents
    /// spread across them instead of always hitting the lowest slot.
    pub preempt_cursor: usize,
    /// Whether an engine-instruction event is already queued.
    pub engine_scheduled: bool,
    /// Outbound frame queue (MAC).
    pub tx_queue: VecDeque<Frame>,
    /// Whether a TxReady event is already queued.
    pub tx_scheduled: bool,
    /// Congestion retry counter for the frame at the queue head.
    pub tx_attempt: u32,
    /// Last LED value an agent displayed.
    pub leds: i16,
    /// Protocol-session state, created on the first write; `None` on a
    /// mote that never took part in a migration or remote operation.
    sessions: Option<Box<Sessions>>,
    /// Whether the mote has been failed by fault injection: dead nodes send
    /// nothing, receive nothing, and execute nothing.
    pub dead: bool,
}

impl Node {
    /// Creates a node with the paper's resource budgets; `config` sets how
    /// long an acquaintance outlives its last beacon.
    pub fn new(id: NodeId, loc: Location, config: &AgillaConfig) -> Self {
        Node {
            id,
            loc,
            space: TupleSpace::new(TUPLE_SPACE_BYTES, agilla_tuplespace::ArenaKind::Linear),
            registry: ReactionRegistry::new(REACTION_REGISTRY_SLOTS, REACTION_REGISTRY_BYTES),
            acq: AcquaintanceList::new(SimDuration::from_micros(
                3 * config.beacon_period.as_micros() + 500_000,
            )),
            slots: Vec::new(),
            rr_cursor: 0,
            preempt_cursor: 0,
            engine_scheduled: false,
            tx_queue: VecDeque::new(),
            tx_scheduled: false,
            tx_attempt: 0,
            leds: 0,
            sessions: None,
            dead: false,
        }
    }

    /// Code blocks consumed by resident agents (instruction manager
    /// accounting: minimum whole 22-byte blocks per agent).
    pub fn blocks_used(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .map(|s| s.agent.code().len().div_ceil(CODE_BLOCK_BYTES))
            .sum()
    }

    /// Whether an agent with `code_len` bytes of code can be admitted:
    /// needs a free slot and enough free instruction blocks. Before the
    /// first admission every slot is free.
    pub fn can_admit(&self, code_len: usize) -> bool {
        let free_slot = self.slots.is_empty() || self.slots.iter().any(Option::is_none);
        free_slot && self.blocks_used() + code_len.div_ceil(CODE_BLOCK_BYTES) <= CODE_BLOCKS
    }

    /// Installs an agent into a free slot, returning the slot index.
    /// Callers check [`Node::can_admit`] first; `None` means no free slot.
    /// The first admission creates all [`MAX_AGENTS`] slots at once.
    pub fn admit(&mut self, agent: AgentState) -> Option<usize> {
        if self.slots.is_empty() {
            self.slots.resize_with(MAX_AGENTS, || None);
        }
        let idx = self.slots.iter().position(Option::is_none)?;
        self.slots[idx] = Some(AgentSlot::new(agent));
        Some(idx)
    }

    /// Removes the agent in `slot`, returning it.
    pub fn evict(&mut self, slot: usize) -> Option<AgentSlot> {
        self.slots.get_mut(slot)?.take()
    }

    /// The slot index currently holding `agent`, if resident.
    pub fn slot_of(&self, agent: AgentId) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| s.agent.id() == agent))
    }

    /// Ids of all resident agents.
    pub fn agents(&self) -> Vec<AgentId> {
        self.slots.iter().flatten().map(|s| s.agent.id()).collect()
    }

    /// Whether any slot is ready to execute.
    pub fn has_ready_agent(&self) -> bool {
        self.slots
            .iter()
            .flatten()
            .any(|s| s.status == AgentStatus::Ready)
    }

    /// Picks the next ready slot round-robin, advancing the cursor when the
    /// current slot's slice is exhausted or it is not runnable.
    pub fn pick_ready(&mut self, slice: u32) -> Option<usize> {
        let n = self.slots.len();
        // If the cursor's agent is ready and within its slice, keep it.
        if let Some(Some(slot)) = self.slots.get(self.rr_cursor) {
            if slot.status == AgentStatus::Ready && slot.slice_used < slice {
                return Some(self.rr_cursor);
            }
        }
        // Otherwise rotate to the next ready agent with a fresh slice.
        for step in 1..=n {
            let idx = (self.rr_cursor + step) % n;
            if let Some(Some(slot)) = self.slots.get(idx) {
                if slot.status == AgentStatus::Ready {
                    self.rr_cursor = idx;
                    if let Some(Some(slot)) = self.slots.get_mut(idx) {
                        slot.slice_used = 0;
                    }
                    return Some(idx);
                }
            }
        }
        None
    }

    /// The mote's session state, or `None` if it never had any.
    pub fn sessions(&self) -> Option<&Sessions> {
        self.sessions.as_deref()
    }

    /// Mutable session state for lookups, updates and removals; `None`,
    /// and nothing created, on a mote that never had any.
    pub(crate) fn sessions_mut(&mut self) -> Option<&mut Sessions> {
        self.sessions.as_deref_mut()
    }

    /// The open outbound migration session `id`, if any.
    pub(crate) fn send_session_mut(&mut self, id: u16) -> Option<&mut SenderSession> {
        self.sessions_mut()?.send_sessions.get_mut(&id)
    }

    /// The open inbound migration session `id`, if any.
    pub(crate) fn recv_session_mut(&mut self, id: u16) -> Option<&mut ReceiverSession> {
        self.sessions_mut()?.recv_sessions.get_mut(&id)
    }

    /// The pending remote operation `op_id`, if any.
    pub(crate) fn pending_remote_mut(&mut self, op_id: u16) -> Option<&mut PendingRemote> {
        self.sessions_mut()?.pending_remote.get_mut(&op_id)
    }

    /// Session state for a write, created on first use with the cache TTLs
    /// `config` sets.
    pub(crate) fn sessions_or_create(&mut self, config: &AgillaConfig) -> &mut Sessions {
        self.sessions
            .get_or_insert_with(|| Box::new(Sessions::new(config)))
    }

    /// Caches a served remote operation's reply for duplicate requests. The
    /// entry survives the initiator's entire retransmit window (TTL from
    /// [`AgillaConfig::remote_reply_ttl`]); capacity pressure never evicts a
    /// live entry.
    pub fn cache_reply(
        &mut self,
        key: RemoteDedupKey,
        reply: RtsReply,
        now: SimTime,
        config: &AgillaConfig,
    ) {
        self.sessions_or_create(config)
            .reply_cache
            .insert(key, reply, now);
    }

    /// Looks up a live cached reply for a duplicate request.
    pub fn cached_reply(&self, key: RemoteDedupKey, now: SimTime) -> Option<&RtsReply> {
        self.sessions()?.reply_cache.lookup(&key, now)
    }

    /// Records a completed inbound migration session for duplicate re-acks.
    pub fn cache_mig_done(
        &mut self,
        session: u16,
        from: NodeId,
        origin: Option<Location>,
        now: SimTime,
        config: &AgillaConfig,
    ) {
        self.sessions_or_create(config).mig_done_cache.insert(
            session,
            MigDonePath { from, origin },
            now,
        );
    }

    /// Looks up the reply path of a recently completed inbound migration
    /// session. Hop-by-hop entries additionally require the same link
    /// sender, so only the retransmitting sender (not a new migration that
    /// happens to reuse the id) gets the cached ack; end-to-end duplicates
    /// can arrive via a different last hop, so those match on session alone.
    pub fn mig_done(
        &self,
        session: u16,
        from: NodeId,
        now: SimTime,
    ) -> Option<(NodeId, Option<Location>)> {
        self.sessions()?
            .mig_done_cache
            .lookup(&session, now)
            .filter(|path| path.origin.is_some() || path.from == from)
            .map(|path| (path.from, path.origin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agilla_vm::asm::assemble;
    use proptest::prelude::*;

    fn cfg() -> AgillaConfig {
        AgillaConfig::default()
    }

    fn agent(id: u16, code_bytes: usize) -> AgentState {
        AgentState::with_code(AgentId(id), vec![0; code_bytes.max(1)]).unwrap()
    }

    fn node() -> Node {
        Node::new(NodeId(1), Location::new(1, 1), &cfg())
    }

    #[test]
    fn admit_up_to_max_agents() {
        let mut n = node();
        for i in 0..4 {
            assert!(n.can_admit(10), "agent {i}");
            n.admit(agent(i, 10)).unwrap();
        }
        assert!(!n.can_admit(10), "fifth agent refused: no slot");
        assert_eq!(n.agents().len(), 4);
    }

    #[test]
    fn admission_respects_code_blocks() {
        let mut n = node();
        // Two agents of 220 bytes = 10 blocks each fill the 20-block budget.
        n.admit(agent(1, 220)).unwrap();
        assert!(n.can_admit(220));
        n.admit(agent(2, 220)).unwrap();
        assert_eq!(n.blocks_used(), 20);
        assert!(!n.can_admit(1), "no blocks left despite free slots");
    }

    #[test]
    fn evict_frees_slot_and_blocks() {
        let mut n = node();
        n.admit(agent(1, 220)).unwrap();
        n.admit(agent(2, 220)).unwrap();
        let slot = n.slot_of(AgentId(1)).unwrap();
        let evicted = n.evict(slot).unwrap();
        assert_eq!(evicted.agent.id(), AgentId(1));
        assert!(n.can_admit(220));
        assert_eq!(n.slot_of(AgentId(1)), None);
    }

    #[test]
    fn round_robin_slices() {
        let mut n = node();
        let code = assemble("halt").unwrap().into_code();
        for i in 0..3 {
            n.admit(AgentState::with_code(AgentId(i), code.clone()).unwrap());
        }
        // All ready: cursor stays within slice, rotates after 4 instructions.
        let first = n.pick_ready(4).unwrap();
        n.slots[first].as_mut().unwrap().slice_used = 4;
        let second = n.pick_ready(4).unwrap();
        assert_ne!(first, second, "slice exhausted, engine rotates");
        // Mark second non-ready: rotation skips it.
        n.slots[second].as_mut().unwrap().status = AgentStatus::Waiting;
        let third = n.pick_ready(4).unwrap();
        assert_ne!(third, second);
    }

    #[test]
    fn pick_ready_none_when_all_blocked() {
        let mut n = node();
        n.admit(agent(1, 4)).unwrap();
        n.slots[0].as_mut().unwrap().status = AgentStatus::Waiting;
        assert_eq!(n.pick_ready(4), None);
        assert!(!n.has_ready_agent());
    }

    fn key(origin: u16, op_id: u16) -> RemoteDedupKey {
        RemoteDedupKey {
            origin: NodeId(origin),
            op_id,
        }
    }

    #[test]
    fn reply_cache_survives_the_full_retransmit_window() {
        // The lost-ack duplication class: a burst of other served ops must
        // not evict a reply while its initiator can still retransmit.
        let mut n = node();
        let origin = Location::new(0, 1);
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        n.cache_reply(
            key(1, 0),
            RtsReply {
                op_id: 0,
                dest: origin,
                success: true,
                tuple: None,
            },
            now,
            &cfg(),
        );
        for i in 1..100u16 {
            n.cache_reply(
                key(1, i),
                RtsReply {
                    op_id: i,
                    dest: origin,
                    success: true,
                    tuple: None,
                },
                now,
                &cfg(),
            );
        }
        let window_end = now + cfg().remote_reply_ttl();
        assert!(
            n.cached_reply(key(1, 0), window_end).is_some(),
            "live entries are never capacity-evicted"
        );
        let expired = window_end + SimDuration::from_micros(1);
        assert!(
            n.cached_reply(key(1, 0), expired).is_none(),
            "expired past the TTL"
        );
    }

    #[test]
    fn reply_cache_key_is_wrap_safe() {
        let mut n = node();
        let origin = Location::new(0, 1);
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        n.cache_reply(
            key(1, 9),
            RtsReply {
                op_id: 9,
                dest: origin,
                success: true,
                tuple: None,
            },
            now,
            &cfg(),
        );
        // Same op id from a *different node* is a different operation.
        assert!(
            n.cached_reply(key(2, 9), now).is_none(),
            "origin-node mismatch"
        );
        // A wrapped op id reappearing after the TTL finds nothing stale.
        let long_after = now + SimDuration::from_secs(60);
        assert!(
            n.cached_reply(key(1, 9), long_after).is_none(),
            "wrap-safe via expiry"
        );
    }

    #[test]
    fn mig_done_cache_answers_the_retransmitting_sender() {
        let mut n = node();
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        n.cache_mig_done(42, NodeId(7), None, now, &cfg());
        // The sender whose final ack was lost gets the cached reply path.
        assert_eq!(n.mig_done(42, NodeId(7), now), Some((NodeId(7), None)));
        // A *different* link sender reusing the session id (wrap-around)
        // must not hit the hop-by-hop entry.
        assert_eq!(n.mig_done(42, NodeId(9), now), None);
        // Unknown sessions (e.g. receiver-aborted) stay silent.
        assert_eq!(n.mig_done(43, NodeId(7), now), None);
    }

    #[test]
    fn mig_done_cache_matches_e2e_sessions_from_any_hop() {
        let mut n = node();
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        let origin = Some(Location::new(0, 1));
        n.cache_mig_done(5, NodeId(2), origin, now, &cfg());
        // End-to-end duplicates can be georouted in via a different last
        // hop, so the match is on session alone.
        assert_eq!(n.mig_done(5, NodeId(3), now), Some((NodeId(2), origin)));
    }

    #[test]
    fn mig_done_cache_entries_expire() {
        let mut n = node();
        let done_at = SimTime::ZERO + SimDuration::from_secs(1);
        n.cache_mig_done(42, NodeId(7), None, done_at, &cfg());
        let within = done_at + cfg().migration_done_ttl();
        assert!(
            n.mig_done(42, NodeId(7), within).is_some(),
            "alive inside the TTL"
        );
        let after = within + SimDuration::from_micros(1);
        assert_eq!(
            n.mig_done(42, NodeId(7), after),
            None,
            "expired past the TTL"
        );
    }

    #[test]
    fn mig_done_cache_outlives_a_burst_of_completions() {
        let mut n = node();
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        for s in 0..100u16 {
            n.cache_mig_done(s, NodeId(7), None, now, &cfg());
        }
        assert!(
            n.mig_done(0, NodeId(7), now).is_some(),
            "no capacity eviction inside the retransmit window"
        );
    }

    #[test]
    fn a_fresh_mote_has_no_slots_and_no_session_state() {
        let n = node();
        assert!(n.slots.is_empty());
        assert!(n.sessions().is_none());
        assert!(n.can_admit(10), "every slot is free before any admission");
    }

    #[test]
    fn the_first_admission_creates_every_slot_for_good() {
        let mut n = node();
        assert_eq!(n.admit(agent(1, 10)), Some(0));
        assert_eq!(n.slots.len(), MAX_AGENTS);
        n.evict(0).unwrap();
        assert_eq!(n.slots.len(), MAX_AGENTS, "slots are never dropped");
    }

    #[test]
    fn session_lookups_do_not_create_session_state() {
        let mut n = node();
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        assert_eq!(n.mig_done(1, NodeId(2), now), None);
        assert!(n.cached_reply(key(2, 1), now).is_none());
        assert!(n.send_session_mut(1).is_none());
        assert!(n.recv_session_mut(1).is_none());
        assert!(n.pending_remote_mut(1).is_none());
        assert!(
            n.sessions().is_none(),
            "lookups answered none, created nothing"
        );
        n.cache_mig_done(1, NodeId(2), None, now, &cfg());
        let s = n.sessions().expect("the first write creates the state");
        assert_eq!(s.reply_cache.ttl(), cfg().remote_reply_ttl());
        assert_eq!(s.mig_done_cache.ttl(), cfg().migration_done_ttl());
    }

    /// Per-mote memory ratchet: every mote of a field pays this, so it sets
    /// the slope of the peak-RSS column in EXPERIMENTS.md's Scale table.
    /// It was 480 B while the session tables lived inline.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn node_size_ratchet() {
        let size = std::mem::size_of::<Node>();
        assert!(size <= 320, "size_of::<Node>() grew to {size} B");
    }

    /// A node whose [`MAX_AGENTS`] slots exist from the start, as every
    /// node's did before slots were created at the first admission.
    fn eager_node() -> Node {
        let mut n = node();
        n.slots = (0..MAX_AGENTS).map(|_| None).collect();
        n
    }

    fn status(pick: u16) -> AgentStatus {
        match pick % 6 {
            0 => AgentStatus::Ready,
            1 => AgentStatus::Sleeping {
                until: SimTime::ZERO + SimDuration::from_micros(u64::from(pick)),
            },
            2 => AgentStatus::Waiting,
            3 => AgentStatus::Blocked,
            4 => AgentStatus::AwaitingRemote { op_id: pick },
            _ => AgentStatus::InMigration,
        }
    }

    proptest! {
        /// Slots created at the first admission behave exactly like slots
        /// that always existed. Random admissions (code-block exhaustion
        /// while slots are free included), evictions, status changes and
        /// round-robin picks get the same answers from both nodes.
        #[test]
        fn prop_slots_created_on_first_admission_match_eager_slots(
            ops in prop::collection::vec((0u8..6, 0u16..400, 0u16..12), 1..80),
        ) {
            let mut lazy = node();
            let mut eager = eager_node();
            let mut next_id = 1u16;
            for (kind, a, b) in ops {
                match kind {
                    // 0: admission as the network does it, asking first;
                    // 1: an unconditional `admit`.
                    0 | 1 => {
                        let len = usize::from(a);
                        let asked = lazy.can_admit(len);
                        prop_assert_eq!(asked, eager.can_admit(len));
                        if asked || kind == 1 {
                            let idx = lazy.admit(agent(next_id, len));
                            prop_assert_eq!(idx, eager.admit(agent(next_id, len)));
                            next_id += 1;
                        }
                    }
                    2 => {
                        let slot = usize::from(b) % (MAX_AGENTS + 1);
                        prop_assert_eq!(
                            lazy.evict(slot).map(|s| s.agent.id()),
                            eager.evict(slot).map(|s| s.agent.id())
                        );
                    }
                    3 => {
                        for n in [&mut lazy, &mut eager] {
                            if let Some(Some(s)) = n.slots.get_mut(usize::from(b)) {
                                s.status = status(a);
                            }
                        }
                    }
                    _ => {
                        let slice = u32::from(b % 4) + 1;
                        let picked = lazy.pick_ready(slice);
                        prop_assert_eq!(picked, eager.pick_ready(slice));
                        // The engine runs one instruction of the pick.
                        if let Some(i) = picked {
                            for n in [&mut lazy, &mut eager] {
                                n.slots[i].as_mut().expect("picked").slice_used += 1;
                            }
                        }
                    }
                }
                prop_assert_eq!(lazy.agents(), eager.agents());
                prop_assert_eq!(lazy.rr_cursor, eager.rr_cursor);
            }
        }
    }
}
