//! Multi-tenancy policy layer for the Agilla reproduction.
//!
//! The paper's premise is that many agent applications share one deployed
//! sensor network, but mechanism alone (agent slots, a shared tuplespace)
//! gives no *isolation*: one greedy application can fill every slot and
//! starve the rest. This crate is the policy layer above the existing
//! mechanism:
//!
//! * [`AppId`] / [`AppProfile`] — applications as first-class entities with
//!   a per-mote [`AppQuota`] (agent slots, tuplespace bytes, instruction
//!   budget) and a [`Priority`] class.
//! * [`QuotaLedger`] — per-(app, mote) usage accounting with checked
//!   charge/release, so a quota can never be exceeded and an eviction
//!   frees exactly what was charged (no leak, no double-free).
//! * [`Allocator`] — the base-station admission/allocation policy: places
//!   incoming apps onto topology regions using `agilla-analysis` static
//!   cost bounds as the load estimate, rejecting apps that do not fit.
//!
//! The crate is deliberately free of simulator types: `agilla` (core)
//! threads [`AppId`] through injection, migration, and clone paths and
//! calls into the ledger; this crate only decides and accounts.
//!
//! # Examples
//!
//! ```
//! use agilla_tenancy::{AppId, AppQuota, QuotaLedger};
//!
//! let mut ledger = QuotaLedger::new();
//! ledger.register(AppId(1), AppQuota::new(2, 100, 10_000));
//! ledger.charge_slot(AppId(1), 0).unwrap();
//! ledger.charge_slot(AppId(1), 0).unwrap();
//! // The third agent on mote 0 is over quota.
//! assert!(ledger.charge_slot(AppId(1), 0).is_err());
//! // …until an eviction frees one.
//! ledger.release_slot(AppId(1), 0).unwrap();
//! ledger.charge_slot(AppId(1), 0).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod quota;

pub use alloc::{Allocator, Decision, Region, DEFAULT_INSTR_ESTIMATE};
pub use quota::{QuotaError, QuotaLedger, Usage};

use std::fmt;

/// Identifies one tenant application across the whole deployment.
///
/// Stable for the lifetime of a trial: agents cloned or migrated on
/// behalf of an app keep its id, so usage follows the app, not the agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u16);

impl fmt::Display for AppId {
    /// Formats as the metric-name segment, e.g. `app03`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{:02}", self.0)
    }
}

/// Priority class of an application, ordered lowest to highest.
///
/// Preemption is strict: an app may evict agents only of apps with a
/// *strictly* lower priority class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort background work (habitat monitoring, maintenance).
    Low,
    /// The default class; never preempts, never preempted by `Normal`.
    #[default]
    Normal,
    /// Emergency response (fire alarm); may preempt `Normal` and `Low`.
    High,
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        })
    }
}

/// Per-mote resource caps for one application.
///
/// Every cap is *per mote*: an app with `agent_slots = 2` may run two
/// agents on every mote in its region, not two in total. `u32::MAX` /
/// `u64::MAX` means unlimited (the default), which makes a default-quota
/// app behaviourally identical to the pre-tenancy world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppQuota {
    /// Maximum concurrently resident agents per mote.
    pub agent_slots: u32,
    /// Maximum tuplespace bytes held per mote (encoded tuple size).
    pub tuple_bytes: u32,
    /// Maximum VM instructions executed per mote over the app's lifetime.
    pub instr_budget: u64,
}

impl AppQuota {
    /// A quota with explicit caps.
    pub fn new(agent_slots: u32, tuple_bytes: u32, instr_budget: u64) -> Self {
        AppQuota {
            agent_slots,
            tuple_bytes,
            instr_budget,
        }
    }

    /// The no-op quota: every cap unlimited.
    pub fn unlimited() -> Self {
        AppQuota {
            agent_slots: u32::MAX,
            tuple_bytes: u32::MAX,
            instr_budget: u64::MAX,
        }
    }
}

impl Default for AppQuota {
    fn default() -> Self {
        AppQuota::unlimited()
    }
}

/// One registered tenant application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppProfile {
    /// The app's deployment-wide id.
    pub id: AppId,
    /// Human-readable name (report rows, log lines).
    pub name: String,
    /// Per-mote resource caps.
    pub quota: AppQuota,
    /// Priority class for admission and preemption.
    pub priority: Priority,
}

impl AppProfile {
    /// A profile with the default (unlimited) quota and normal priority.
    pub fn new(id: AppId, name: impl Into<String>) -> Self {
        AppProfile {
            id,
            name: name.into(),
            quota: AppQuota::default(),
            priority: Priority::default(),
        }
    }

    /// Sets the per-mote quota.
    pub fn quota(mut self, quota: AppQuota) -> Self {
        self.quota = quota;
        self
    }

    /// Sets the priority class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_id_display_pads() {
        assert_eq!(AppId(3).to_string(), "app03");
        assert_eq!(AppId(42).to_string(), "app42");
    }

    #[test]
    fn priority_is_strictly_ordered() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn default_quota_is_unlimited() {
        let q = AppQuota::default();
        assert_eq!(q.agent_slots, u32::MAX);
        assert_eq!(q.tuple_bytes, u32::MAX);
        assert_eq!(q.instr_budget, u64::MAX);
    }

    #[test]
    fn profile_builder() {
        let p = AppProfile::new(AppId(1), "fire")
            .quota(AppQuota::new(1, 50, 1000))
            .priority(Priority::High);
        assert_eq!(p.name, "fire");
        assert_eq!(p.quota.agent_slots, 1);
        assert_eq!(p.priority, Priority::High);
    }
}
