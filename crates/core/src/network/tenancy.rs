//! Multi-tenancy: several applications sharing one deployment, each under
//! per-mote quotas and a priority class.
//!
//! The network holds a [`Tenancy`] only from the first
//! [`AgillaNetwork::register_app`](super::AgillaNetwork::register_app) on;
//! until then every hook is a `None` check, so an untagged network runs
//! exactly as if the subsystem did not exist. Every tenancy decision — slot,
//! byte and instruction charges, remote-op attribution, FIFO byte crediting,
//! preemption victims — is made here, from state that only dispatched events
//! mutate, so each one is a deterministic function of the event order.

use std::collections::{BTreeMap, VecDeque};

use agilla_tenancy::{AppId, AppProfile, QuotaLedger};
use agilla_tuplespace::Tuple;
use wsn_common::AgentId;

use crate::node::{AgentStatus, Node};

/// Registered applications, which app owns each agent, and the quota
/// ledger that charges them (see module docs).
#[derive(Debug)]
pub(super) struct Tenancy {
    /// Registered applications, by id (`BTreeMap` iteration keeps every
    /// derived walk deterministic).
    apps: BTreeMap<AppId, AppProfile>,
    /// Which application owns each live agent (clones inherit the
    /// parent's app; entries are dropped when the agent halts, faults,
    /// is evicted, or is lost in a failed migration).
    app_of: BTreeMap<AgentId, AppId>,
    /// Per-(app, mote) resource usage against declared quotas.
    pub(super) ledger: QuotaLedger,
    /// Per-node byte-attribution queues keyed by encoded tuple bytes:
    /// `inp` removes the first matching tuple in insertion order, so the
    /// front of the queue is exactly the app whose copy was consumed.
    tuple_owners: Vec<BTreeMap<Vec<u8>, VecDeque<AppId>>>,
    /// Which application issued each in-flight remote tuple-space
    /// operation, so a remote `rout` charges the issuer at the serving
    /// mote.
    op_app: BTreeMap<u16, AppId>,
}

impl Tenancy {
    /// No applications yet, on a network of `nodes` motes.
    pub(super) fn new(nodes: usize) -> Self {
        Tenancy {
            apps: BTreeMap::new(),
            app_of: BTreeMap::new(),
            ledger: QuotaLedger::new(),
            tuple_owners: vec![BTreeMap::new(); nodes],
            op_app: BTreeMap::new(),
        }
    }

    /// Registers (or replaces) an application's quota and priority.
    pub(super) fn register(&mut self, profile: AppProfile) {
        self.ledger.register(profile.id, profile.quota);
        self.apps.insert(profile.id, profile);
    }

    // --- agents -----------------------------------------------------------

    /// Charges `app` one agent slot on `node` for an injection; false,
    /// charging nothing, when the app is unknown or its per-mote cap is
    /// full.
    pub(super) fn charge_slot(&mut self, app: AppId, node: usize) -> bool {
        self.ledger.charge_slot(app, node as u32).is_ok()
    }

    /// Refunds the slot charged for an injection that then failed.
    pub(super) fn refund_slot(&mut self, app: AppId, node: usize) {
        let _ = self.ledger.release_slot(app, node as u32);
    }

    /// Records an injected agent as `app`'s.
    pub(super) fn adopt(&mut self, agent: AgentId, app: AppId) {
        self.app_of.insert(agent, app);
    }

    /// Settles the re-admission of an existing agent on `node`, where the
    /// mote itself has room when `room` holds: its app is charged one
    /// slot. Whether the agent is admitted; one that is not is dropped for
    /// good, so its app forgets it.
    pub(super) fn readmit(&mut self, agent: AgentId, node: usize, room: bool) -> bool {
        let Some(&app) = self.app_of.get(&agent) else {
            return room;
        };
        if room && self.ledger.charge_slot(app, node as u32).is_ok() {
            return true;
        }
        self.app_of.remove(&agent);
        false
    }

    /// Releases the slot of an agent leaving `node` alive (a migration
    /// departure): its app is charged again wherever it lands.
    pub(super) fn release_slot(&mut self, agent: AgentId, node: usize) {
        if let Some(&app) = self.app_of.get(&agent) {
            let _ = self.ledger.release_slot(app, node as u32);
        }
    }

    /// Releases the slot of an agent gone from the network for good (halt,
    /// fault, eviction) and forgets it, returning its app.
    pub(super) fn depart(&mut self, agent: AgentId, node: usize) -> Option<AppId> {
        let app = self.app_of.remove(&agent)?;
        let _ = self.ledger.release_slot(app, node as u32);
        Some(app)
    }

    /// A clone belongs to its parent's application.
    pub(super) fn inherit(&mut self, parent: AgentId, child: AgentId) {
        if let Some(&app) = self.app_of.get(&parent) {
            self.app_of.insert(child, app);
        }
    }

    /// Forgets an agent that holds no slot and no longer exists anywhere
    /// (a clone whose session failed).
    pub(super) fn forget(&mut self, agent: AgentId) {
        self.app_of.remove(&agent);
    }

    /// Charges one executed instruction to the app owning `agent`; false
    /// when its per-mote instruction budget is spent.
    pub(super) fn charge_instruction(&mut self, agent: AgentId, node: usize) -> bool {
        self.app_of
            .get(&agent)
            .is_none_or(|&app| self.ledger.charge_instructions(app, node as u32, 1).is_ok())
    }

    /// The resident of `node` that an arriving agent of `app` preempts, if
    /// any, with the node's preemption cursor advanced past it. Only
    /// interruptible agents (Ready / Sleeping / Waiting / Blocked) of a
    /// strictly lower-priority app qualify: agents mid-migration or
    /// awaiting a remote reply hold protocol sessions that must resolve
    /// first. (An evicted sleeper may leave a stale wake event behind;
    /// `handle_wake` checks the occupant's own deadline, so the stale timer
    /// never wakes a successor early.) Among the lowest-priority residents
    /// the first at or after the cursor goes, so repeated preemptions
    /// against equal-priority residents rotate over the slots.
    pub(super) fn preempt_victim(&self, app: AppId, node: &mut Node) -> Option<usize> {
        let arriving = self.apps.get(&app)?.priority;
        let rank = |s: usize| {
            let slot = node.slots[s].as_ref()?;
            if !matches!(
                slot.status,
                AgentStatus::Ready
                    | AgentStatus::Sleeping { .. }
                    | AgentStatus::Waiting
                    | AgentStatus::Blocked
            ) {
                return None;
            }
            let pri = self.apps.get(self.app_of.get(&slot.agent.id())?)?.priority;
            (pri < arriving).then_some(pri)
        };
        let n = node.slots.len();
        let lowest = (0..n).filter_map(rank).min()?;
        let victim = (0..n)
            .map(|k| (node.preempt_cursor + k) % n)
            .find(|&s| rank(s) == Some(lowest))?;
        node.preempt_cursor = (victim + 1) % n;
        Some(victim)
    }

    // --- tuple-space bytes ------------------------------------------------

    /// Remaining tuple-space byte allowance of `agent`'s app on `node`, or
    /// `None` when the agent is unowned (then nothing is enforced).
    pub(super) fn byte_budget(&self, agent: AgentId, node: usize) -> Option<u32> {
        let app = self.app_of.get(&agent)?;
        let quota = self.ledger.quota(*app)?;
        let used = self.ledger.usage(*app, node as u32).bytes;
        Some(quota.tuple_bytes.saturating_sub(used))
    }

    /// Post-step byte accounting: tuples `agent` inserted debit its app
    /// and enqueue it as their FIFO owner; tuples it removed credit
    /// whichever app's copy was consumed (any agent may `inp` any app's
    /// tuple — Linda spaces are shared).
    pub(super) fn commit_tuples(
        &mut self,
        agent: AgentId,
        node: usize,
        inserted: &[Tuple],
        removed: &[Tuple],
    ) {
        if !inserted.is_empty() {
            if let Some(&app) = self.app_of.get(&agent) {
                for t in inserted {
                    self.record_insertion(app, node, t);
                }
            }
        }
        for t in removed {
            self.credit_removal(node, t);
        }
    }

    /// Charges `t`'s encoded bytes to `app` on `node` and records the
    /// ownership for later crediting.
    fn record_insertion(&mut self, app: AppId, node: usize, t: &Tuple) {
        let key = t.encode();
        let _ = self.ledger.charge_bytes(app, node as u32, key.len() as u32);
        self.tuple_owners[node]
            .entry(key)
            .or_default()
            .push_back(app);
    }

    /// Credits the FIFO owner of a tuple removed from `node`'s space (no-op
    /// for tuples no app owns — boot capability tuples, unowned agents'
    /// insertions).
    pub(super) fn credit_removal(&mut self, node: usize, t: &Tuple) {
        let key = t.encode();
        let Some(q) = self.tuple_owners[node].get_mut(&key) else {
            return;
        };
        if let Some(a) = q.pop_front() {
            let _ = self.ledger.release_bytes(a, node as u32, key.len() as u32);
        }
        if q.is_empty() {
            self.tuple_owners[node].remove(&key);
        }
    }

    // --- remote operations ------------------------------------------------

    /// Records which app issued remote op `op_id` (clearing any stale
    /// mapping left by a wrapped id whose completion event was lost).
    pub(super) fn track_op(&mut self, op_id: u16, agent: AgentId) {
        self.op_app.remove(&op_id);
        if let Some(&app) = self.app_of.get(&agent) {
            self.op_app.insert(op_id, app);
        }
    }

    /// Forgets a completed remote op's attribution.
    pub(super) fn complete_op(&mut self, op_id: u16) {
        self.op_app.remove(&op_id);
    }

    /// Whether the app that issued remote op `op_id` may store `needed`
    /// more tuple bytes on `node` (true for unowned ops).
    pub(super) fn can_store_remote(&self, op_id: u16, node: usize, needed: usize) -> bool {
        self.op_app.get(&op_id).is_none_or(|&app| {
            self.ledger
                .can_charge_bytes(app, node as u32, needed as u32)
        })
    }

    /// Charges a remotely stored tuple to the issuing app and records the
    /// ownership for later crediting.
    pub(super) fn store_remote(&mut self, op_id: u16, node: usize, t: &Tuple) {
        if let Some(&app) = self.op_app.get(&op_id) {
            self.record_insertion(app, node, t);
        }
    }
}
