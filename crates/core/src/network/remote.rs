//! Remote tuple-space operations (`rout`/`rinp`/`rrdp`) over geographic
//! routing (Section 3.2).
//!
//! The initiator side rides the shared reliable-session layer
//! ([`super::session`]): retransmission state lives in [`RetxState`]
//! inside each [`PendingRemote`]. The server side answers duplicate
//! requests from a TTL'd [`CompletedCache`](super::session::CompletedCache)
//! keyed by `(origin NodeId, op_id)` — wrap-safe, and guaranteed to outlive
//! the initiator's entire retransmit window — so a retransmitted `rout`
//! whose first execution already happened is re-acked, never re-executed.
//! That is the exactly-once guarantee for remote operations, the same
//! property the migration receiver's completed-session cache provides for
//! agents.

use agilla_tuplespace::Tuple;
use agilla_vm::exec::{self, RemoteOp};
use wsn_radio::Frame;
use wsn_sim::{SimDuration, SimTime};

use crate::config::{GEOROUTING_FORWARD, REMOTE_OP_RETX, REMOTE_OP_SERVICE};
use crate::node::{AgentStatus, PendingRemote, RemoteDedupKey};
use crate::stats::OpRecord;
use crate::wire::{self, am, RtsKind, RtsReply, RtsRequest};

use super::session::{RetxState, RetxVerdict};
use super::{AgillaNetwork, Departure, Event};

/// The result of a remote tuple-space operation, delivered to the waiting
/// agent by `complete_remote`.
#[derive(Debug)]
struct RemoteOutcome {
    op_id: u16,
    tuple: Option<Tuple>,
    success: bool,
    retransmitted: bool,
}

/// How a remote-op completion reaches the issuing agent: synchronously
/// within the same engine step (local destination, oversize request), or
/// asynchronously via a reply or timeout event after the agent parked in
/// [`AgentStatus::AwaitingRemote`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Completion {
    /// Same engine step; the issuing agent still occupies the slot.
    Sync,
    /// A later event; the slot may have been reused, so the agent must be
    /// awaiting exactly this op id.
    Async,
}

impl AgillaNetwork {
    pub(super) fn issue_remote(&mut self, idx: usize, slot_idx: usize, op: RemoteOp, now: SimTime) {
        let node_id = self.nodes[idx].id;
        let my_loc = self.nodes[idx].loc;
        let agent_id = self.nodes[idx].slots[slot_idx]
            .as_ref()
            .expect("issuing slot")
            .agent
            .id();
        let op_id = self.op_ids.allocate();
        if let Some(t) = self.tenancy.as_mut() {
            t.track_op(op_id, agent_id);
        }
        let dest = op.dest();
        self.log.push(OpRecord::RemoteIssued {
            op_id,
            agent: agent_id,
            dest,
            at: now,
        });
        self.tracer
            .record_with(now, Some(node_id), "remote.issue", || {
                format!("{agent_id} op{op_id} -> {dest}")
            });

        let request = match &op {
            RemoteOp::Out { dest, tuple } => {
                RtsRequest::for_out(op_id, node_id, my_loc, *dest, tuple)
            }
            RemoteOp::Inp { dest, template } => {
                RtsRequest::for_probe(op_id, node_id, my_loc, *dest, RtsKind::Inp, template)
            }
            RemoteOp::Rdp { dest, template } => {
                RtsRequest::for_probe(op_id, node_id, my_loc, *dest, RtsKind::Rdp, template)
            }
        };
        let request = match request {
            Ok(r) => r,
            Err(e) => {
                // Too large to ship in one message: fail locally, condition 0.
                self.tracer
                    .record_with(now, Some(node_id), "remote.toolarge", || {
                        format!("op{op_id}: {e}")
                    });
                self.complete_remote(
                    idx,
                    slot_idx,
                    RemoteOutcome {
                        op_id,
                        tuple: None,
                        success: false,
                        retransmitted: false,
                    },
                    Completion::Sync,
                    now,
                );
                return;
            }
        };

        // Local destination: serve synchronously.
        if my_loc.matches_within(dest, self.config.epsilon) {
            let (tuple, success, inserted) = self.serve_rts_locally(idx, &request);
            if !inserted.is_empty() {
                self.after_insertions(idx, inserted, now);
            }
            self.complete_remote(
                idx,
                slot_idx,
                RemoteOutcome {
                    op_id,
                    tuple,
                    success,
                    retransmitted: false,
                },
                Completion::Sync,
                now,
            );
            return;
        }

        self.nodes[idx]
            .sessions_or_create(&self.config)
            .pending_remote
            .insert(
                op_id,
                PendingRemote {
                    request: request.clone(),
                    slot: slot_idx,
                    issued_at: now,
                    last_hop: None,
                    tried_hops: Vec::new(),
                    retx: RetxState::new(),
                },
            );
        self.set_status(idx, slot_idx, AgentStatus::AwaitingRemote { op_id });
        self.send_rts_request(idx, op_id, now);
    }

    fn send_rts_request(&mut self, idx: usize, op_id: u16, now: SimTime) {
        let node_id = self.nodes[idx].id;
        let my_loc = self.nodes[idx].loc;
        let (payload, dest, tried) = {
            let Some(p) = self.nodes[idx].pending_remote_mut(op_id) else {
                return;
            };
            (p.request.encode(), p.request.dest, p.tried_hops.clone())
        };
        let timer = self.queue.schedule(
            now + self.config.remote_timeout(),
            Event::RemoteTimeout {
                node: node_id,
                op_id,
            },
        );
        if let Some(p) = self.nodes[idx].pending_remote_mut(op_id) {
            p.retx.arm(timer);
        }
        // Without failover history this is exactly `next_hop` (the head of
        // the candidate list); after a first-hop failover, exhausted
        // candidates are skipped in best-first order.
        let hop = if tried.is_empty() {
            self.greedy_hop(idx, dest, now)
        } else {
            let neighbors = self.nodes[idx].acq.live(now);
            wsn_net::next_hop_candidates(my_loc, &neighbors, dest)
                .into_iter()
                .find(|c| !tried.contains(c))
        };
        match hop {
            Some(hop) => {
                if let Some(p) = self.nodes[idx].pending_remote_mut(op_id) {
                    p.last_hop = Some(hop);
                }
                let msg = wire::message(am::RTS_REQ, payload);
                self.enqueue_frame(
                    idx,
                    Frame::unicast(node_id, hop, msg.encode()),
                    now,
                    SimDuration::ZERO,
                );
            }
            None => {
                self.tracer
                    .record_with(now, Some(node_id), "remote.noroute", || {
                        format!("op{op_id} -> {dest}")
                    });
            }
        }
    }

    pub(super) fn handle_remote_timeout(&mut self, idx: usize, op_id: u16, now: SimTime) {
        let verdict = {
            let Some(p) = self.nodes[idx].pending_remote_mut(op_id) else {
                return;
            };
            p.retx.on_timeout(REMOTE_OP_RETX)
        };
        match verdict {
            RetxVerdict::GiveUp => {
                // First-hop failover: the whole retransmission budget went
                // into one neighbor (dead battery, faded link) — reissue
                // the request via the next geographic candidate before
                // reporting failure to the agent.
                if self.config.hop_failover && self.failover_remote(idx, op_id, now) {
                    return;
                }
                let Some(p) = self.nodes[idx]
                    .sessions_mut()
                    .and_then(|ss| ss.pending_remote.remove(&op_id))
                else {
                    return;
                };
                self.complete_remote(
                    idx,
                    p.slot,
                    RemoteOutcome {
                        op_id,
                        tuple: None,
                        success: false,
                        retransmitted: p.retx.retransmitted(),
                    },
                    Completion::Async,
                    now,
                );
            }
            RetxVerdict::Retry => {
                self.metrics.bump(self.ctr.remote_retx);
                self.send_rts_request(idx, op_id, now);
            }
        }
    }

    /// Marks the current first hop exhausted and, if an untried candidate
    /// from [`wsn_net::next_hop_candidates`] remains, reissues the request
    /// toward it with a fresh retransmission budget. Returns `false` when
    /// no alternative exists (the op then fails as before). Switches are
    /// capped at [`crate::config::MAX_HOP_FAILOVERS`], which is what lets
    /// [`AgillaConfig::remote_reply_ttl`](crate::config::AgillaConfig::remote_reply_ttl)
    /// bound the server's dedup-cache TTL over every budget the initiator
    /// can burn — an uncapped reissue could arrive after the cached reply
    /// expired and re-execute the operation.
    fn failover_remote(&mut self, idx: usize, op_id: u16, now: SimTime) -> bool {
        let node_id = self.nodes[idx].id;
        let my_loc = self.nodes[idx].loc;
        let neighbors = self.nodes[idx].acq.live(now);
        {
            let Some(p) = self.nodes[idx].pending_remote_mut(op_id) else {
                return false;
            };
            let Some(last) = p.last_hop else {
                return false; // never routed at all: no candidate to blame
            };
            let candidates = wsn_net::next_hop_candidates(my_loc, &neighbors, p.request.dest);
            if super::session::pick_failover_hop(&mut p.tried_hops, last, &candidates).is_none() {
                return false;
            }
            p.retx.reset_for_failover();
        }
        self.metrics.bump(self.ctr.remote_failover);
        self.tracer
            .record_with(now, Some(node_id), "remote.failover", || {
                format!("op{op_id}")
            });
        self.send_rts_request(idx, op_id, now);
        true
    }

    /// Performs a remote-op request against this node's own space. Returns
    /// (result tuple, success, tuples inserted).
    fn serve_rts_locally(
        &mut self,
        idx: usize,
        req: &RtsRequest,
    ) -> (Option<Tuple>, bool, Vec<Tuple>) {
        match req.kind {
            RtsKind::Out => match req.tuple() {
                Ok(t) => {
                    // A remote `out` is charged to the issuing app; past its
                    // byte quota the request fails exactly like a full space.
                    let needed = t.encoded_len();
                    let fits = self
                        .tenancy
                        .as_ref()
                        .is_none_or(|tn| tn.can_store_remote(req.op_id, idx, needed));
                    if !fits || self.nodes[idx].space.out(t.clone()).is_err() {
                        return (None, false, vec![]);
                    }
                    if let Some(tn) = self.tenancy.as_mut() {
                        tn.store_remote(req.op_id, idx, &t);
                    }
                    (None, true, vec![t])
                }
                Err(_) => (None, false, vec![]),
            },
            RtsKind::Inp => match req.template() {
                Ok(tmpl) => {
                    let found = self.nodes[idx].space.inp(&tmpl);
                    if let (Some(t), Some(tn)) = (&found, self.tenancy.as_mut()) {
                        tn.credit_removal(idx, t);
                    }
                    let ok = found.is_some();
                    (found, ok, vec![])
                }
                Err(_) => (None, false, vec![]),
            },
            RtsKind::Rdp => match req.template() {
                Ok(tmpl) => {
                    let found = self.nodes[idx].space.rdp(&tmpl);
                    let ok = found.is_some();
                    (found, ok, vec![])
                }
                Err(_) => (None, false, vec![]),
            },
        }
    }

    pub(super) fn handle_rts_request(&mut self, idx: usize, req: RtsRequest, now: SimTime) {
        let node_id = self.nodes[idx].id;
        let my_loc = self.nodes[idx].loc;
        if my_loc.matches_within(req.dest, self.config.epsilon) {
            // Serve, with duplicate suppression through the session layer's
            // completed-op cache: a retransmitted request whose first copy
            // was already executed gets the cached reply, never a second
            // execution (the lost-ack exactly-once guarantee).
            let key = RemoteDedupKey {
                origin: req.origin_node,
                op_id: req.op_id,
            };
            let reply = if let Some(r) = self.nodes[idx].cached_reply(key, now) {
                self.metrics.bump(self.ctr.remote_reack);
                self.tracer
                    .record_with(now, Some(node_id), "remote.reack", || {
                        format!("op{}", req.op_id)
                    });
                r.clone()
            } else {
                let (tuple, success, inserted) = self.serve_rts_locally(idx, &req);
                if !inserted.is_empty() {
                    self.after_insertions(idx, inserted, now);
                }
                let reply = RtsReply {
                    op_id: req.op_id,
                    dest: req.origin,
                    success,
                    tuple,
                };
                self.nodes[idx].cache_reply(key, reply.clone(), now, &self.config);
                self.tracer
                    .record_with(now, Some(node_id), "remote.serve", || {
                        format!("op{}", req.op_id)
                    });
                reply
            };
            self.forward_rts_reply(idx, reply, REMOTE_OP_SERVICE, now);
        } else {
            // Forward toward the destination (a TinyOS task at each hop).
            match self.greedy_hop(idx, req.dest, now) {
                Some(hop) => {
                    let msg = wire::message(am::RTS_REQ, req.encode());
                    let frame = Frame::unicast(node_id, hop, msg.encode());
                    self.enqueue_frame(idx, frame, now, GEOROUTING_FORWARD);
                }
                None => {
                    self.tracer
                        .record_with(now, Some(node_id), "remote.noroute", || {
                            format!("op{} fwd", req.op_id)
                        });
                }
            }
        }
    }

    fn forward_rts_reply(&mut self, idx: usize, reply: RtsReply, extra: SimDuration, now: SimTime) {
        let node_id = self.nodes[idx].id;
        let my_loc = self.nodes[idx].loc;
        if my_loc.matches_within(reply.dest, self.config.epsilon) {
            // We are the origin.
            self.deliver_rts_reply(idx, reply, now);
            return;
        }
        match self.greedy_hop(idx, reply.dest, now) {
            Some(hop) => {
                let msg = wire::message(am::RTS_REP, reply.encode());
                self.enqueue_frame(idx, Frame::unicast(node_id, hop, msg.encode()), now, extra);
            }
            None => {
                self.tracer
                    .record_with(now, Some(node_id), "remote.noroute", || {
                        format!("op{} reply", reply.op_id)
                    });
            }
        }
    }

    pub(super) fn handle_rts_reply(&mut self, idx: usize, reply: RtsReply, now: SimTime) {
        let my_loc = self.nodes[idx].loc;
        if my_loc.matches_within(reply.dest, self.config.epsilon) {
            self.deliver_rts_reply(idx, reply, now);
        } else {
            self.forward_rts_reply(idx, reply, GEOROUTING_FORWARD, now);
        }
    }

    fn deliver_rts_reply(&mut self, idx: usize, reply: RtsReply, now: SimTime) {
        let Some(mut p) = self.nodes[idx]
            .sessions_mut()
            .and_then(|ss| ss.pending_remote.remove(&reply.op_id))
        else {
            return; // late duplicate; the operation already completed
        };
        if let Some(t) = p.retx.take_timer() {
            self.queue.cancel(t);
        }
        self.complete_remote(
            idx,
            p.slot,
            RemoteOutcome {
                op_id: reply.op_id,
                tuple: reply.tuple,
                success: reply.success,
                retransmitted: p.retx.retransmitted(),
            },
            Completion::Async,
            now,
        );
    }

    fn complete_remote(
        &mut self,
        idx: usize,
        slot_idx: usize,
        outcome: RemoteOutcome,
        completion: Completion,
        now: SimTime,
    ) {
        let RemoteOutcome {
            op_id,
            tuple,
            success,
            retransmitted,
        } = outcome;
        // The op is settled whether or not the issuer still occupies its
        // slot — drop the attribution before the delivery checks below.
        if let Some(t) = self.tenancy.as_mut() {
            t.complete_op(op_id);
        }
        let node_id = self.nodes[idx].id;
        let Some(slot) = self.nodes[idx].slots[slot_idx].as_mut() else {
            return;
        };
        // Asynchronous completions arrive through events, so the slot may
        // have been vacated and reused since the op was issued: only deliver
        // to an agent awaiting exactly this op id. Synchronous completions
        // happen within the issuing agent's own engine step, before any
        // status change, so the slot is necessarily still the issuer.
        let matches = match completion {
            Completion::Sync => true,
            Completion::Async => {
                matches!(slot.status, AgentStatus::AwaitingRemote { op_id: waiting } if waiting == op_id)
            }
        };
        if !matches {
            return;
        }
        let agent_id = slot.agent.id();
        match exec::deliver_remote_result(&mut slot.agent, tuple, success) {
            Ok(()) => {
                slot.status = AgentStatus::Ready;
                self.log.push(OpRecord::RemoteCompleted {
                    op_id,
                    agent: agent_id,
                    success,
                    retransmitted,
                    at: now,
                });
                self.tracer
                    .record_with(now, Some(node_id), "remote.complete", || {
                        format!("{agent_id} op{op_id} success={success}")
                    });
                self.schedule_engine(idx, now, SimDuration::ZERO);
            }
            Err(e) => self.depart(idx, slot_idx, Departure::Faulted(e), now),
        }
    }
}
