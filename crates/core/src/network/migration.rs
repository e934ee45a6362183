//! The hop-by-hop acknowledged migration protocol (Section 3.2), plus the
//! end-to-end ablation variant the paper tried and rejected.
//!
//! Sender sessions ride the shared reliable-session layer
//! ([`super::session`]): per-message retransmission state lives in
//! [`RetxState`](super::session::RetxState) inside each
//! [`SenderSession`](crate::node::SenderSession), and receivers answer
//! duplicates of completed sessions from the TTL'd
//! [`CompletedCache`](super::session::CompletedCache) in each
//! [`Node`](crate::node::Node)'s [`Sessions`](crate::node::Sessions) — the
//! re-ack that keeps a lost final ack from duplicating an agent.

use agilla_tuplespace::Reaction;
use agilla_vm::{AgentState, MigrateKind};
use wsn_common::{AgentId, Location, NodeId};
use wsn_radio::Frame;
use wsn_sim::{SimDuration, SimTime};

use crate::config::{
    E2E_ACK_TIMEOUT_FACTOR, GEOROUTING_FORWARD, MIGRATION_MSG_HANDLING, MIGRATION_RECEIVER_RESTORE,
    MIGRATION_RETX, MIGRATION_SENDER_SETUP,
};
use crate::migration::MigrationImage;
use crate::node::{AgentStatus, ReceiverSession, SenderSession};
use crate::stats::OpRecord;
use crate::wire::{self, am, Envelope, MigAck, MigData, MigHeader, MigNack};

use super::session::RetxVerdict;
use super::{AgillaNetwork, Event};

/// Fragment chunk size in end-to-end ablation mode: the 9-byte geographic
/// envelope plus the 4-byte fragment header leave 14 bytes per message.
const E2E_CHUNK: usize = 14;

impl AgillaNetwork {
    // --- migration: sender side -------------------------------------------

    pub(super) fn start_migration(
        &mut self,
        idx: usize,
        slot_idx: usize,
        kind: MigrateKind,
        dest: Location,
        now: SimTime,
    ) {
        let node_id = self.nodes[idx].id;
        let my_loc = self.nodes[idx].loc;
        let eps = self.config.epsilon;

        // Destination is this very node: no radio involved.
        if my_loc.matches_within(dest, eps) {
            self.local_migration(idx, slot_idx, kind, now);
            return;
        }

        // Route before building anything: a clone with nowhere to go fails
        // without being copied or packaged.
        if kind.is_clone() && self.greedy_hop(idx, dest, now).is_none() {
            self.fail_unroutable_clone(idx, slot_idx, kind, dest, now);
            return;
        }

        let owner = self.nodes[idx].slots[slot_idx]
            .as_ref()
            .expect("migrating slot")
            .agent
            .id();

        // Reactions travelling with the agent.
        let reactions: Vec<Reaction> = if kind.is_strong() {
            if kind.is_clone() {
                self.nodes[idx]
                    .registry
                    .iter()
                    .filter(|r| r.owner == owner)
                    .cloned()
                    .collect()
            } else {
                self.nodes[idx].registry.remove_all(owner)
            }
        } else {
            if !kind.is_clone() {
                self.nodes[idx].registry.remove_all(owner);
            }
            Vec::new()
        };

        // Build the travelling image.
        let (image, held_agent, origin_slot) = if kind.is_clone() {
            let slot = self.nodes[idx].slots[slot_idx]
                .as_mut()
                .expect("migrating slot");
            let mut copy = slot.agent.clone();
            let new_id = AgentId(self.agent_ids.allocate());
            copy.set_id(new_id);
            let mut reactions = reactions;
            for r in &mut reactions {
                r.owner = new_id;
            }
            slot.status = AgentStatus::InMigration;
            (
                MigrationImage::package(&copy, kind, dest, reactions),
                None,
                Some(slot_idx),
            )
        } else {
            let slot = self.nodes[idx].evict(slot_idx).expect("migrating slot");
            // The mover's slot charge here is released now; the app is
            // re-charged wherever the agent next lands (or the mapping is
            // dropped if the image is lost).
            self.tenancy_release_slot(idx, slot.agent.id());
            let image = MigrationImage::package(&slot.agent, kind, dest, reactions);
            (image, Some(slot.agent), None)
        };
        // Travelling clones inherit the parent's application.
        if kind.is_clone() {
            self.tenancy_inherit(owner, image.agent_id);
        }

        self.tracer
            .record_with(now, Some(node_id), "migrate.start", || {
                format!("{} {:?} -> {dest}", image.agent_id, kind)
            });
        self.metrics.bump(self.ctr.mig_started);
        self.open_sender_session(
            idx,
            image,
            held_agent,
            origin_slot,
            MIGRATION_SENDER_SETUP,
            now,
        );
    }

    /// A clone (`sclone`/`wclone`) with no next hop toward `dest`. The
    /// effects, and their order, are those of packaging the clone and
    /// failing its session for want of a route — one agent id consumed,
    /// the `migrate.start` and `migrate.noroute` records, one
    /// `migration.started`, the original resumed with condition 0 — but
    /// the agent is never copied, packaged or encoded. FIRETRACKER-style
    /// agents retry `sclone` from a greedy dead end in a tight loop, so
    /// this is the common clone start on sparse or moving fields.
    fn fail_unroutable_clone(
        &mut self,
        idx: usize,
        slot_idx: usize,
        kind: MigrateKind,
        dest: Location,
        now: SimTime,
    ) {
        let node_id = self.nodes[idx].id;
        let slot = self.nodes[idx].slots[slot_idx]
            .as_mut()
            .expect("migrating slot");
        slot.status = AgentStatus::InMigration;
        let owner = slot.agent.id();
        let clone_id = AgentId(self.agent_ids.allocate());
        self.tenancy_inherit(owner, clone_id);
        self.tracer
            .record_with(now, Some(node_id), "migrate.start", || {
                format!("{clone_id} {kind:?} -> {dest}")
            });
        self.metrics.bump(self.ctr.mig_started);
        self.tracer
            .record_with(now, Some(node_id), "migrate.noroute", || {
                format!("{clone_id} -> {dest}")
            });
        self.resume_clone_original(idx, slot_idx, clone_id, now);
    }

    /// A migration whose destination is the current node.
    fn local_migration(&mut self, idx: usize, slot_idx: usize, kind: MigrateKind, now: SimTime) {
        let node_id = self.nodes[idx].id;
        if kind.is_clone() {
            let (copy, owner) = {
                let slot = self.nodes[idx].slots[slot_idx].as_ref().expect("slot");
                (slot.agent.clone(), slot.agent.id())
            };
            let mut copy = copy;
            let new_id = AgentId(self.agent_ids.allocate());
            copy.set_id(new_id);
            if !kind.is_strong() {
                copy.reset_weak();
            }
            copy.set_condition(1);
            let admitted = self.nodes[idx].can_admit(copy.code().len())
                && self.tenancy_charge_slot(idx, owner)
                && self.nodes[idx].admit(copy).is_some();
            if admitted {
                self.tenancy_inherit(owner, new_id);
            }
            // Clone reactions for strong local clones.
            if admitted && kind.is_strong() {
                let cloned: Vec<Reaction> = self.nodes[idx]
                    .registry
                    .iter()
                    .filter(|r| r.owner == owner)
                    .cloned()
                    .collect();
                for mut r in cloned {
                    r.owner = new_id;
                    let _ = self.nodes[idx].registry.register(r);
                }
            }
            let slot = self.nodes[idx].slots[slot_idx].as_mut().expect("slot");
            slot.agent.set_condition(if admitted { 2 } else { 0 });
            slot.status = AgentStatus::Ready;
            if admitted {
                self.log.push(OpRecord::MigrationArrived {
                    agent: new_id,
                    node: node_id,
                    kind,
                    at: now,
                });
                self.tracer
                    .record_with(now, Some(node_id), "migrate.arrive", || {
                        format!("{new_id} (local clone)")
                    });
            } else {
                self.tracer
                    .record_with(now, Some(node_id), "migrate.fail", || {
                        "local clone refused".into()
                    });
            }
        } else {
            // Moving to yourself succeeds trivially.
            let slot = self.nodes[idx].slots[slot_idx].as_mut().expect("slot");
            slot.agent.set_condition(1);
            slot.status = AgentStatus::Ready;
            let id = slot.agent.id();
            self.log.push(OpRecord::MigrationArrived {
                agent: id,
                node: node_id,
                kind,
                at: now,
            });
        }
        self.schedule_engine(idx, now, SimDuration::ZERO);
    }

    /// Opens a sender session toward the greedy next hop for
    /// `image.final_dest`. `origin_slot` holds a clone's paused original; a
    /// mover's state rides in `held_agent`; relays pass neither. With no
    /// next hop the mover or relay resumes here at once (unroutable clones
    /// never get this far; see `fail_unroutable_clone`).
    pub(super) fn open_sender_session(
        &mut self,
        idx: usize,
        image: MigrationImage,
        held_agent: Option<AgentState>,
        origin_slot: Option<usize>,
        setup: SimDuration,
        now: SimTime,
    ) {
        let node_id = self.nodes[idx].id;
        let Some(hop) = self.greedy_hop(idx, image.final_dest, now) else {
            debug_assert!(origin_slot.is_none(), "unroutable clones fail earlier");
            self.tracer
                .record_with(now, Some(node_id), "migrate.noroute", || {
                    format!("{} -> {}", image.agent_id, image.final_dest)
                });
            self.resume_failed_migration(idx, image, held_agent, now);
            return;
        };
        let session = self.session_ids.allocate();
        let header = image.header(session);
        let fragments = if self.config.hop_by_hop_migration {
            image.fragments(session)
        } else {
            image.fragments_sized(session, E2E_CHUNK, E2E_CHUNK)
        };
        let s = SenderSession {
            image,
            fragments,
            header,
            next_frag: None,
            next_hop: hop,
            tried_hops: Vec::new(),
            held_agent,
            origin_slot,
            retx: super::session::RetxState::new(),
        };
        self.nodes[idx]
            .sessions_or_create(&self.config)
            .send_sessions
            .insert(session, s);
        if origin_slot.is_some() {
            self.metrics.bump(self.ctr.mig_clone_sessions);
        }
        self.send_migration_msg(idx, session, setup, now);
    }

    fn send_migration_msg(&mut self, idx: usize, session: u16, extra: SimDuration, now: SimTime) {
        let node_id = self.nodes[idx].id;
        let my_loc = self.nodes[idx].loc;
        let (payload, am_type, hop, final_dest) = {
            let Some(s) = self.nodes[idx].send_session_mut(session) else {
                return;
            };
            let payload = match s.next_frag {
                None => (am::MIG_HDR, s.header.encode()),
                Some(k) => (am::MIG_DATA, s.fragments[k].encode()),
            };
            (payload.1, payload.0, s.next_hop, s.image.final_dest)
        };
        let (msg, ack_timeout) = if self.config.hop_by_hop_migration {
            (
                wire::message(am_type, payload),
                self.config.migration_ack_timeout(),
            )
        } else {
            // End-to-end ablation: wrap in the geographic envelope; only the
            // final destination unwraps and acknowledges.
            let env = Envelope {
                dest: final_dest,
                src: my_loc,
                inner_am: am_type,
                inner: payload,
            };
            (
                wire::message(am::MIG_E2E, env.encode()),
                SimDuration::from_micros(
                    self.config.migration_ack_timeout().as_micros() * E2E_ACK_TIMEOUT_FACTOR,
                ),
            )
        };
        self.enqueue_frame(idx, Frame::unicast(node_id, hop, msg.encode()), now, extra);
        let timer = self.queue.schedule(
            now + extra + ack_timeout,
            Event::MigRetx {
                node: node_id,
                session,
            },
        );
        if let Some(s) = self.nodes[idx].send_session_mut(session) {
            s.retx.arm(timer);
        }
    }

    /// Processes a migration ack. `from` is the link-layer sender for
    /// hop-by-hop acks — only the current `next_hop` may advance the
    /// window, so a late ack from a hop the session already failed away
    /// from cannot be mis-credited to the new candidate (which has not
    /// even seen the header yet). End-to-end acks arrive enveloped via an
    /// arbitrary last hop and pass `None`.
    pub(super) fn handle_mig_ack(
        &mut self,
        idx: usize,
        from: Option<NodeId>,
        ack: MigAck,
        now: SimTime,
    ) {
        let finished = {
            let Some(s) = self.nodes[idx].send_session_mut(ack.session) else {
                return;
            };
            if let Some(f) = from {
                if f != s.next_hop {
                    return;
                }
            }
            // Only the in-flight message's ack advances the window.
            let expected = match s.next_frag {
                None => ack.seq == MigAck::HEADER_SEQ,
                Some(k) => {
                    let f = &s.fragments[k];
                    f.section == ack.section && f.seq == ack.seq
                }
            };
            if !expected {
                return;
            }
            if let Some(t) = s.retx.acked() {
                self.queue.cancel(t);
            }
            let next = match s.next_frag {
                None => 0,
                Some(k) => k + 1,
            };
            if next >= s.fragments.len() {
                true
            } else {
                s.next_frag = Some(next);
                false
            }
        };
        if finished {
            self.finish_sender(idx, ack.session, now);
        } else {
            self.send_migration_msg(idx, ack.session, SimDuration::ZERO, now);
        }
    }

    /// Processes a migration refusal. Like acks, hop-by-hop NACKs carry
    /// their link-layer sender in `from` and only the current `next_hop`
    /// may kill the session — a stale NACK from a hop the session already
    /// failed away from must not abort the transfer now progressing toward
    /// the new candidate. End-to-end NACKs arrive enveloped via an
    /// arbitrary last hop and pass `None`.
    pub(super) fn handle_mig_nack(
        &mut self,
        idx: usize,
        from: Option<NodeId>,
        session: u16,
        now: SimTime,
    ) {
        if let Some(f) = from {
            let current = self.nodes[idx]
                .send_session_mut(session)
                .map(|s| s.next_hop);
            if current != Some(f) {
                return;
            }
        }
        self.fail_sender(idx, session, "refused by receiver", now);
    }

    pub(super) fn handle_mig_retx(&mut self, idx: usize, session: u16, now: SimTime) {
        let verdict = {
            let Some(s) = self.nodes[idx].send_session_mut(session) else {
                return;
            };
            s.retx.on_timeout(MIGRATION_RETX)
        };
        match verdict {
            RetxVerdict::GiveUp => {
                // Hop-level failover: the primary candidate kept timing out
                // (dead battery, faded link) — before declaring the session
                // failed, restart it toward the next-best hop in
                // `next_hop_candidates` order.
                if self.config.hop_failover && self.failover_sender(idx, session, now) {
                    return;
                }
                self.fail_sender(idx, session, "ack retries exhausted", now)
            }
            RetxVerdict::Retry => {
                self.metrics.bump(self.ctr.mig_retx);
                self.send_migration_msg(idx, session, SimDuration::ZERO, now);
            }
        }
    }

    /// Restarts sender session `session` toward the next untried candidate
    /// from [`wsn_net::next_hop_candidates`], with a fresh retransmission
    /// budget (capped at [`crate::config::MAX_HOP_FAILOVERS`] switches).
    /// Returns `false` when every candidate has been exhausted (the caller
    /// then fails the session as before).
    ///
    /// Residual duplication risk, inherited from the paper's protocol: if
    /// the abandoned hop in fact received everything and only its acks were
    /// lost, the agent now exists there *and* gets re-shipped to the new
    /// candidate — the same two-copies outcome as the protocol's original
    /// give-up path, which resumes the agent locally (Section 3.2 accepts
    /// this trade; the receiver-side completed-session cache closes the
    /// common retransmit case but cannot span receivers).
    fn failover_sender(&mut self, idx: usize, session: u16, now: SimTime) -> bool {
        let node_id = self.nodes[idx].id;
        let my_loc = self.nodes[idx].loc;
        let neighbors = self.nodes[idx].acq.live(now);
        let (previous, next) = {
            let Some(s) = self.nodes[idx].send_session_mut(session) else {
                return false;
            };
            let previous = s.next_hop;
            let candidates = wsn_net::next_hop_candidates(my_loc, &neighbors, s.image.final_dest);
            let Some(next) =
                super::session::pick_failover_hop(&mut s.tried_hops, previous, &candidates)
            else {
                return false;
            };
            s.next_hop = next;
            // The new hop has none of the session: restart from the header.
            s.next_frag = None;
            s.retx.reset_for_failover();
            (previous, next)
        };
        self.metrics.bump(self.ctr.mig_failover);
        self.tracer
            .record_with(now, Some(node_id), "migrate.failover", || {
                format!("session {session}: {previous} -> {next}")
            });
        self.send_migration_msg(idx, session, SimDuration::ZERO, now);
        true
    }

    fn finish_sender(&mut self, idx: usize, session: u16, now: SimTime) {
        let node_id = self.nodes[idx].id;
        let Some(s) = self.nodes[idx]
            .sessions_mut()
            .and_then(|ss| ss.send_sessions.remove(&session))
        else {
            return;
        };
        self.tracer
            .record_with(now, Some(node_id), "migrate.hop", || {
                format!("{} forwarded via {}", s.image.agent_id, s.next_hop)
            });
        if let Some(slot_idx) = s.origin_slot {
            // Clone original resumes with condition 2 (copy dispatched).
            if let Some(slot) = self.nodes[idx].slots[slot_idx].as_mut() {
                if slot.status == AgentStatus::InMigration {
                    slot.agent.set_condition(2);
                    slot.status = AgentStatus::Ready;
                    self.schedule_engine(idx, now, SimDuration::ZERO);
                }
            }
        }
        // Movers and relays: the agent now lives down the path.
    }

    pub(super) fn fail_sender(&mut self, idx: usize, session: u16, why: &str, now: SimTime) {
        let node_id = self.nodes[idx].id;
        let Some(mut s) = self.nodes[idx]
            .sessions_mut()
            .and_then(|ss| ss.send_sessions.remove(&session))
        else {
            return;
        };
        if let Some(t) = s.retx.take_timer() {
            self.queue.cancel(t);
        }
        self.tracer
            .record_with(now, Some(node_id), "migrate.fail", || {
                format!("{}: {why}", s.image.agent_id)
            });
        self.metrics.bump(self.ctr.mig_failed);
        match s.origin_slot {
            Some(slot_idx) => self.resume_clone_original(idx, slot_idx, s.image.agent_id, now),
            None => self.resume_failed_migration(idx, s.image, s.held_agent, now),
        }
    }

    /// The clone case of [`Self::resume_failed_migration`]: the original
    /// paused in `slot_idx` resumes with condition 0, and the copy
    /// `clone_id` is dropped. The copy never held a slot charge, so only
    /// its app mapping goes. Every failed clone — unroutable at the start
    /// or failed in session — ends here.
    fn resume_clone_original(
        &mut self,
        idx: usize,
        slot_idx: usize,
        clone_id: AgentId,
        now: SimTime,
    ) {
        let node_id = self.nodes[idx].id;
        self.tenancy_forget_mapping(clone_id);
        if let Some(slot) = self.nodes[idx].slots[slot_idx].as_mut() {
            if slot.status == AgentStatus::InMigration {
                slot.agent.set_condition(0);
                slot.status = AgentStatus::Ready;
            }
        }
        self.log.push(OpRecord::MigrationFailed {
            agent: clone_id,
            node: node_id,
            at: now,
        });
        self.schedule_engine(idx, now, SimDuration::ZERO);
    }

    /// "If the sender detects a failure, it resumes the agent running on the
    /// local machine with the condition code set to zero." (Section 3.2)
    ///
    /// A mover's held state, or a relay's agent re-materialized from its
    /// image, is re-admitted here if it fits; clones resume through
    /// [`Self::resume_clone_original`].
    fn resume_failed_migration(
        &mut self,
        idx: usize,
        image: MigrationImage,
        held_agent: Option<AgentState>,
        now: SimTime,
    ) {
        let node_id = self.nodes[idx].id;
        let agent_id = image.agent_id;
        let mut agent = match held_agent {
            Some(a) => a,
            None => match crate::migration::reassemble(
                &image.header(0),
                &image.state,
                image.code.clone(),
                &image
                    .reactions
                    .iter()
                    .map(crate::migration::encode_reaction)
                    .collect::<Vec<_>>(),
            ) {
                Ok((a, _)) => a,
                Err(_) => {
                    self.tenancy_forget_mapping(agent_id);
                    self.tracer
                        .record_with(now, Some(node_id), "migrate.lost", || format!("{agent_id}"));
                    self.log.push(OpRecord::MigrationFailed {
                        agent: agent_id,
                        node: node_id,
                        at: now,
                    });
                    return;
                }
            },
        };
        agent.set_condition(0);
        if self.config.verify_on_inject {
            // Same code the verifier accepted at injection time.
            agent.mark_verified();
        }
        self.log.push(OpRecord::MigrationFailed {
            agent: agent_id,
            node: node_id,
            at: now,
        });
        if self.nodes[idx].can_admit(agent.code().len()) && self.tenancy_charge_slot(idx, agent_id)
        {
            let reactions = image.reactions.clone();
            self.nodes[idx].admit(agent);
            for r in reactions {
                let _ = self.nodes[idx].registry.register(r);
            }
            self.schedule_engine(idx, now, SimDuration::ZERO);
        } else {
            self.tenancy_forget_mapping(agent_id);
            self.tracer
                .record_with(now, Some(node_id), "migrate.lost", || {
                    format!("{agent_id}: no room to resume")
                });
        }
    }

    // --- migration: receiver side -----------------------------------------

    /// Routes an enveloped (end-to-end) migration message: unwrap at the
    /// destination, forward geographically otherwise.
    pub(super) fn handle_envelope(
        &mut self,
        idx: usize,
        from: NodeId,
        env: Envelope,
        now: SimTime,
    ) {
        let node_id = self.nodes[idx].id;
        let my_loc = self.nodes[idx].loc;
        if my_loc.matches_within(env.dest, self.config.epsilon) {
            match env.inner_am {
                t if t == am::MIG_HDR => {
                    if let Some(h) = MigHeader::decode(&env.inner) {
                        self.handle_mig_header(idx, from, Some(env.src), h, now);
                    }
                }
                t if t == am::MIG_DATA => {
                    if let Some(d) = MigData::decode(&env.inner) {
                        self.handle_mig_data(idx, from, d, now);
                    }
                }
                t if t == am::MIG_ACK => {
                    if let Some(a) = MigAck::decode(&env.inner) {
                        self.handle_mig_ack(idx, None, a, now);
                    }
                }
                t if t == am::MIG_NACK => {
                    if let Some(n) = MigNack::decode(&env.inner) {
                        self.handle_mig_nack(idx, None, n.session, now);
                    }
                }
                _ => {}
            }
            return;
        }
        // Forward toward the envelope destination.
        if let Some(hop) = self.greedy_hop(idx, env.dest, now) {
            let msg = wire::message(am::MIG_E2E, env.encode());
            let frame = Frame::unicast(node_id, hop, msg.encode());
            self.enqueue_frame(idx, frame, now, GEOROUTING_FORWARD);
        }
    }

    pub(super) fn handle_mig_header(
        &mut self,
        idx: usize,
        from: NodeId,
        origin: Option<Location>,
        h: MigHeader,
        now: SimTime,
    ) {
        let node_id = self.nodes[idx].id;
        let my_loc = self.nodes[idx].loc;
        let is_final = my_loc.matches_within(h.final_dest, self.config.epsilon);
        if self.nodes[idx].recv_session_mut(h.session).is_some() {
            // Duplicate header: re-ack.
            self.send_session_ack(idx, h.session, wire::MigSection::State, MigAck::HEADER_SEQ);
            return;
        }
        if let Some((cached_from, cached_origin)) = self.nodes[idx].mig_done(h.session, from, now) {
            // Header retransmission for a completed session: re-ack rather
            // than reopening the session and receiving a duplicate agent.
            self.metrics.bump(self.ctr.mig_reack);
            self.send_ack_via(
                idx,
                h.session,
                wire::MigSection::State,
                MigAck::HEADER_SEQ,
                cached_from,
                cached_origin,
            );
            return;
        }
        if is_final && !self.nodes[idx].can_admit(h.code_len as usize) {
            let nack = MigNack { session: h.session }.encode();
            match origin {
                None => {
                    let msg = wire::message(am::MIG_NACK, nack);
                    self.enqueue_frame(
                        idx,
                        Frame::unicast(node_id, from, msg.encode()),
                        now,
                        SimDuration::ZERO,
                    );
                }
                Some(org) => self.send_enveloped(idx, org, am::MIG_NACK, nack, now),
            }
            self.tracer
                .record_with(now, Some(node_id), "migrate.refuse", || {
                    format!("session {}", h.session)
                });
            return;
        }
        // End-to-end sessions stall for whole-path round trips, so their
        // watchdog scales with the ack timeout.
        let abort_after = if origin.is_none() {
            self.config.migration_receiver_abort()
        } else {
            SimDuration::from_micros(
                self.config.migration_receiver_abort().as_micros() * E2E_ACK_TIMEOUT_FACTOR,
            )
        };
        let abort_timer = self.queue.schedule(
            now + abort_after,
            Event::MigAbort {
                node: node_id,
                session: h.session,
            },
        );
        let buf = if self.config.hop_by_hop_migration {
            crate::migration::ReassemblyBuffer::new(h)
        } else {
            crate::migration::ReassemblyBuffer::with_chunks(h, E2E_CHUNK, E2E_CHUNK)
        };
        let session = ReceiverSession {
            buf,
            from,
            origin,
            last_progress: now,
            abort_timer: Some(abort_timer),
        };
        self.nodes[idx]
            .sessions_or_create(&self.config)
            .recv_sessions
            .insert(h.session, session);
        self.send_session_ack(idx, h.session, wire::MigSection::State, MigAck::HEADER_SEQ);
    }

    /// Acknowledges a migration message along the session's reply path
    /// (link-local for hop-by-hop, geographic for end-to-end).
    fn send_session_ack(&mut self, idx: usize, session: u16, section: wire::MigSection, seq: u8) {
        let Some(s) = self.nodes[idx].recv_session_mut(session) else {
            return;
        };
        let (from, origin) = (s.from, s.origin);
        self.send_ack_via(idx, session, section, seq, from, origin);
    }

    /// Sends a migration ack along an explicit reply path (link-local for
    /// hop-by-hop, geographic for end-to-end).
    fn send_ack_via(
        &mut self,
        idx: usize,
        session: u16,
        section: wire::MigSection,
        seq: u8,
        from: NodeId,
        origin: Option<Location>,
    ) {
        let node_id = self.nodes[idx].id;
        // Acks go out at the queue's current event time (every caller is a
        // frame handler, so this equals its `now`).
        let now = self.queue.now();
        let ack = MigAck {
            session,
            section,
            seq,
        }
        .encode();
        match origin {
            None => {
                let msg = wire::message(am::MIG_ACK, ack);
                self.enqueue_frame(
                    idx,
                    Frame::unicast(node_id, from, msg.encode()),
                    now,
                    SimDuration::ZERO,
                );
            }
            Some(org) => {
                self.send_enveloped(idx, org, am::MIG_ACK, ack, now);
            }
        }
    }

    /// Sends an enveloped migration message geographically toward `dest`.
    fn send_enveloped(
        &mut self,
        idx: usize,
        dest: Location,
        inner_am: wsn_net::AmType,
        inner: Vec<u8>,
        now: SimTime,
    ) {
        let node_id = self.nodes[idx].id;
        let my_loc = self.nodes[idx].loc;
        let env = Envelope {
            dest,
            src: my_loc,
            inner_am,
            inner,
        };
        if let Some(hop) = self.greedy_hop(idx, dest, now) {
            let msg = wire::message(am::MIG_E2E, env.encode());
            self.enqueue_frame(
                idx,
                Frame::unicast(node_id, hop, msg.encode()),
                now,
                SimDuration::ZERO,
            );
        }
    }

    pub(super) fn handle_mig_data(&mut self, idx: usize, from: NodeId, d: MigData, now: SimTime) {
        let complete = {
            let Some(s) = self.nodes[idx].recv_session_mut(d.session) else {
                // A retransmission for a session this node already completed
                // means the final ack was lost: re-ack so the sender does not
                // declare failure and resume a duplicate of an agent that in
                // fact arrived. Truly unknown (aborted) sessions stay silent
                // and the sender gives up.
                if let Some((reply_to, origin)) = self.nodes[idx].mig_done(d.session, from, now) {
                    self.metrics.bump(self.ctr.mig_reack);
                    self.send_ack_via(idx, d.session, d.section, d.seq, reply_to, origin);
                }
                return;
            };
            if !s.buf.accept(&d) {
                return;
            }
            s.last_progress = now;
            s.buf.is_complete()
        };
        self.send_session_ack(idx, d.session, d.section, d.seq);
        if complete {
            self.finish_receiver(idx, d.session, now);
        }
    }

    pub(super) fn handle_mig_abort(&mut self, idx: usize, session: u16, now: SimTime) {
        let node_id = self.nodes[idx].id;
        let (stalled, last_progress, window) = {
            let Some(s) = self.nodes[idx].recv_session_mut(session) else {
                return;
            };
            let window = if s.origin.is_none() {
                self.config.migration_receiver_abort()
            } else {
                SimDuration::from_micros(
                    self.config.migration_receiver_abort().as_micros() * E2E_ACK_TIMEOUT_FACTOR,
                )
            };
            let stalled = now.saturating_since(s.last_progress) >= window;
            (stalled, s.last_progress, window)
        };
        if stalled {
            self.nodes[idx]
                .sessions_mut()
                .and_then(|ss| ss.recv_sessions.remove(&session));
            self.tracer
                .record_with(now, Some(node_id), "migrate.rxabort", || {
                    format!("session {session}")
                });
            self.metrics.bump(self.ctr.mig_rxabort);
        } else {
            let timer = self.queue.schedule(
                last_progress + window,
                Event::MigAbort {
                    node: node_id,
                    session,
                },
            );
            if let Some(s) = self.nodes[idx].recv_session_mut(session) {
                s.abort_timer = Some(timer);
            }
        }
    }

    fn finish_receiver(&mut self, idx: usize, session: u16, now: SimTime) {
        let node_id = self.nodes[idx].id;
        let Some(s) = self.nodes[idx]
            .sessions_mut()
            .and_then(|ss| ss.recv_sessions.remove(&session))
        else {
            return;
        };
        if let Some(t) = s.abort_timer {
            self.queue.cancel(t);
        }
        self.nodes[idx].cache_mig_done(session, s.from, s.origin, now, &self.config);
        let header = *s.buf.header();
        let (mut agent, reactions) = match s.buf.finish() {
            Ok(v) => v,
            Err(e) => {
                self.tracer
                    .record_with(now, Some(node_id), "migrate.corrupt", || {
                        format!("session {session}: {e}")
                    });
                return;
            }
        };
        let my_loc = self.nodes[idx].loc;
        if my_loc.matches_within(header.final_dest, self.config.epsilon) {
            // Final destination: install and schedule.
            let agent_id = agent.id();
            if !self.nodes[idx].can_admit(agent.code().len())
                || !self.tenancy_charge_slot(idx, agent_id)
            {
                // The agent is dropped here for good, so its app mapping
                // goes with it (the departure already released its charge).
                self.tenancy_forget_mapping(agent_id);
                self.tracer
                    .record_with(now, Some(node_id), "migrate.refuse", || {
                        format!("{agent_id} on arrival")
                    });
                return;
            }
            if self.config.verify_on_inject {
                // Migration never alters code, so an arriving agent's
                // program is the one the verifier accepted at injection;
                // re-arm the runtime's verified-jump assertions for it.
                agent.mark_verified();
            }
            self.nodes[idx].admit(agent);
            for r in reactions {
                let _ = self.nodes[idx].registry.register(r);
            }
            self.metrics.bump(self.ctr.mig_arrived);
            self.log.push(OpRecord::MigrationArrived {
                agent: agent_id,
                node: node_id,
                kind: header.kind,
                at: now + MIGRATION_RECEIVER_RESTORE,
            });
            self.tracer
                .record_with(now, Some(node_id), "migrate.arrive", || {
                    format!("{agent_id}")
                });
            self.schedule_engine(idx, now, MIGRATION_RECEIVER_RESTORE);
        } else {
            // Relay: store-and-forward toward the final destination.
            let image = MigrationImage {
                kind: header.kind,
                final_dest: header.final_dest,
                agent_id: agent.id(),
                state: agent.encode_state(),
                code: agent.code().to_vec(),
                reactions,
            };
            self.open_sender_session(idx, image, None, None, MIGRATION_MSG_HANDLING, now);
        }
    }
}
