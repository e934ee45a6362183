//! Per-(app, mote) usage accounting with checked charge/release.
//!
//! The ledger is the single source of truth for what every application is
//! using on every mote. All mutation goes through `charge_*` /
//! `release_*` pairs with checked arithmetic: a charge that would exceed
//! the app's [`AppQuota`] fails (and changes nothing), and a release of
//! more than is held fails rather than wrapping — so an eviction frees
//! exactly what was charged, and accounting bugs surface as errors instead
//! of silent drift.

use std::collections::BTreeMap;
use std::fmt;

use crate::{AppId, AppQuota};

/// Resources an app currently holds on one mote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Resident agents.
    pub slots: u32,
    /// Encoded tuplespace bytes held.
    pub bytes: u32,
    /// VM instructions executed (monotone; never released).
    pub instructions: u64,
}

impl Usage {
    fn is_zero(&self) -> bool {
        self.slots == 0 && self.bytes == 0 && self.instructions == 0
    }
}

/// Why a ledger operation was refused. Charges that fail leave the
/// ledger untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaError {
    /// The app was never registered with the ledger.
    UnknownApp(AppId),
    /// The app's per-mote agent-slot cap is already fully used.
    SlotsExhausted,
    /// The charge would push the app past its per-mote byte cap.
    BytesExhausted {
        /// Bytes the charge needed.
        needed: u32,
        /// Bytes still available under the cap.
        available: u32,
    },
    /// The app's per-mote instruction budget is spent.
    InstructionsExhausted,
    /// A release of more than the app holds — a double-free.
    ReleaseUnderflow,
}

impl fmt::Display for QuotaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuotaError::UnknownApp(id) => write!(f, "unknown app {id}"),
            QuotaError::SlotsExhausted => f.write_str("agent-slot quota exhausted"),
            QuotaError::BytesExhausted { needed, available } => {
                write!(
                    f,
                    "byte quota exhausted (needed {needed}, available {available})"
                )
            }
            QuotaError::InstructionsExhausted => f.write_str("instruction budget exhausted"),
            QuotaError::ReleaseUnderflow => f.write_str("release exceeds held amount"),
        }
    }
}

impl std::error::Error for QuotaError {}

/// The deployment-wide quota ledger: per-app quotas plus per-(app, mote)
/// usage, with checked charge/release.
///
/// Iteration orders (`BTreeMap`) are deterministic, so anything derived
/// from a ledger walk is reproducible across runs.
#[derive(Debug, Clone, Default)]
pub struct QuotaLedger {
    quotas: BTreeMap<AppId, AppQuota>,
    usage: BTreeMap<(AppId, u32), Usage>,
}

impl QuotaLedger {
    /// Creates an empty ledger.
    pub const fn new() -> Self {
        QuotaLedger {
            quotas: BTreeMap::new(),
            usage: BTreeMap::new(),
        }
    }

    /// Registers (or replaces) an app's quota.
    pub fn register(&mut self, app: AppId, quota: AppQuota) {
        self.quotas.insert(app, quota);
    }

    /// The quota registered for `app`, if any.
    pub fn quota(&self, app: AppId) -> Option<AppQuota> {
        self.quotas.get(&app).copied()
    }

    /// Current usage of `app` on mote `node` (zero if nothing charged).
    pub fn usage(&self, app: AppId, node: u32) -> Usage {
        self.usage.get(&(app, node)).copied().unwrap_or_default()
    }

    fn quota_of(&self, app: AppId) -> Result<AppQuota, QuotaError> {
        self.quotas
            .get(&app)
            .copied()
            .ok_or(QuotaError::UnknownApp(app))
    }

    /// Charges one agent slot on `node`.
    ///
    /// # Errors
    ///
    /// [`QuotaError::UnknownApp`] or [`QuotaError::SlotsExhausted`]; the
    /// ledger is unchanged on error.
    pub fn charge_slot(&mut self, app: AppId, node: u32) -> Result<(), QuotaError> {
        let quota = self.quota_of(app)?;
        let u = self.usage.entry((app, node)).or_default();
        if u.slots >= quota.agent_slots {
            return Err(QuotaError::SlotsExhausted);
        }
        u.slots += 1;
        Ok(())
    }

    /// Releases one agent slot on `node` (an agent halted, faulted,
    /// migrated away, or was evicted).
    ///
    /// # Errors
    ///
    /// [`QuotaError::ReleaseUnderflow`] if no slot is held — a
    /// double-free; the ledger is unchanged.
    pub fn release_slot(&mut self, app: AppId, node: u32) -> Result<(), QuotaError> {
        let u = self
            .usage
            .get_mut(&(app, node))
            .ok_or(QuotaError::ReleaseUnderflow)?;
        if u.slots == 0 {
            return Err(QuotaError::ReleaseUnderflow);
        }
        u.slots -= 1;
        if u.is_zero() {
            self.usage.remove(&(app, node));
        }
        Ok(())
    }

    /// Whether a charge of `needed` bytes on `node` would succeed,
    /// without performing it.
    pub fn can_charge_bytes(&self, app: AppId, node: u32, needed: u32) -> bool {
        match self.quota_of(app) {
            Ok(quota) => {
                let held = self.usage(app, node).bytes;
                quota.tuple_bytes - held.min(quota.tuple_bytes) >= needed
            }
            Err(_) => false,
        }
    }

    /// Charges `needed` tuplespace bytes on `node`.
    ///
    /// # Errors
    ///
    /// [`QuotaError::UnknownApp`] or [`QuotaError::BytesExhausted`]; the
    /// ledger is unchanged on error.
    pub fn charge_bytes(&mut self, app: AppId, node: u32, needed: u32) -> Result<(), QuotaError> {
        let quota = self.quota_of(app)?;
        let u = self.usage.entry((app, node)).or_default();
        let available = quota.tuple_bytes - u.bytes.min(quota.tuple_bytes);
        if needed > available {
            let err = QuotaError::BytesExhausted { needed, available };
            if u.is_zero() {
                self.usage.remove(&(app, node));
            }
            return Err(err);
        }
        u.bytes += needed;
        Ok(())
    }

    /// Releases `freed` tuplespace bytes on `node` (a held tuple was
    /// removed).
    ///
    /// # Errors
    ///
    /// [`QuotaError::ReleaseUnderflow`] if fewer than `freed` bytes are
    /// held; the ledger is unchanged.
    pub fn release_bytes(&mut self, app: AppId, node: u32, freed: u32) -> Result<(), QuotaError> {
        if freed == 0 {
            return Ok(());
        }
        let u = self
            .usage
            .get_mut(&(app, node))
            .ok_or(QuotaError::ReleaseUnderflow)?;
        if freed > u.bytes {
            return Err(QuotaError::ReleaseUnderflow);
        }
        u.bytes -= freed;
        if u.is_zero() {
            self.usage.remove(&(app, node));
        }
        Ok(())
    }

    /// Charges `count` executed VM instructions on `node`. Instructions
    /// are a monotone budget — there is no release.
    ///
    /// # Errors
    ///
    /// [`QuotaError::UnknownApp`] or [`QuotaError::InstructionsExhausted`]
    /// when the budget is already spent; the ledger is unchanged.
    pub fn charge_instructions(
        &mut self,
        app: AppId,
        node: u32,
        count: u64,
    ) -> Result<(), QuotaError> {
        let quota = self.quota_of(app)?;
        let u = self.usage.entry((app, node)).or_default();
        if u.instructions.saturating_add(count) > quota.instr_budget {
            let err = QuotaError::InstructionsExhausted;
            if u.is_zero() {
                self.usage.remove(&(app, node));
            }
            return Err(err);
        }
        u.instructions += count;
        Ok(())
    }

    /// Whether `code_len` instructions fit the app's per-mote budget at
    /// all — the static admission check applied before the first agent is
    /// ever placed.
    pub fn fits_instr_budget(&self, app: AppId, worst_case_instructions: u64) -> bool {
        match self.quota_of(app) {
            Ok(q) => worst_case_instructions <= q.instr_budget,
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ledger_one(quota: AppQuota) -> QuotaLedger {
        let mut l = QuotaLedger::new();
        l.register(AppId(0), quota);
        l
    }

    #[test]
    fn unknown_app_is_refused() {
        let mut l = QuotaLedger::new();
        assert_eq!(
            l.charge_slot(AppId(9), 0),
            Err(QuotaError::UnknownApp(AppId(9)))
        );
        assert!(!l.fits_instr_budget(AppId(9), 1));
        assert!(!l.can_charge_bytes(AppId(9), 0, 1));
    }

    #[test]
    fn slot_charge_release_roundtrip() {
        let mut l = ledger_one(AppQuota::new(2, 100, 1000));
        l.charge_slot(AppId(0), 3).unwrap();
        l.charge_slot(AppId(0), 3).unwrap();
        assert_eq!(l.charge_slot(AppId(0), 3), Err(QuotaError::SlotsExhausted));
        // A different mote has its own cap.
        l.charge_slot(AppId(0), 4).unwrap();
        l.release_slot(AppId(0), 3).unwrap();
        l.charge_slot(AppId(0), 3).unwrap();
        // Double-free is an error, not silent wrap.
        l.release_slot(AppId(0), 3).unwrap();
        l.release_slot(AppId(0), 3).unwrap();
        assert_eq!(
            l.release_slot(AppId(0), 3),
            Err(QuotaError::ReleaseUnderflow)
        );
    }

    #[test]
    fn byte_charges_respect_cap_and_report_availability() {
        let mut l = ledger_one(AppQuota::new(4, 100, 1000));
        l.charge_bytes(AppId(0), 0, 60).unwrap();
        assert!(l.can_charge_bytes(AppId(0), 0, 40));
        assert!(!l.can_charge_bytes(AppId(0), 0, 41));
        assert_eq!(
            l.charge_bytes(AppId(0), 0, 41),
            Err(QuotaError::BytesExhausted {
                needed: 41,
                available: 40
            })
        );
        l.release_bytes(AppId(0), 0, 60).unwrap();
        assert_eq!(
            l.release_bytes(AppId(0), 0, 1),
            Err(QuotaError::ReleaseUnderflow)
        );
    }

    #[test]
    fn instruction_budget_is_monotone() {
        let mut l = ledger_one(AppQuota::new(4, 100, 100));
        assert!(l.fits_instr_budget(AppId(0), 100));
        assert!(!l.fits_instr_budget(AppId(0), 101));
        l.charge_instructions(AppId(0), 0, 60).unwrap();
        l.charge_instructions(AppId(0), 0, 40).unwrap();
        assert_eq!(
            l.charge_instructions(AppId(0), 0, 1),
            Err(QuotaError::InstructionsExhausted)
        );
        assert_eq!(l.usage(AppId(0), 0).instructions, 100);
    }

    #[test]
    fn zero_usage_entries_are_garbage_collected() {
        let mut l = ledger_one(AppQuota::new(1, 10, 10));
        l.charge_slot(AppId(0), 0).unwrap();
        l.release_slot(AppId(0), 0).unwrap();
        assert!(l.usage.is_empty(), "fully released usage rows are dropped");
        // A failed charge on a fresh (app, node) leaves no residue either.
        assert!(l.charge_bytes(AppId(0), 1, 99).is_err());
        assert!(l.usage.is_empty());
    }

    #[test]
    fn unlimited_quota_never_refuses() {
        let mut l = ledger_one(AppQuota::unlimited());
        for _ in 0..1000 {
            l.charge_slot(AppId(0), 0).unwrap();
        }
        l.charge_bytes(AppId(0), 0, u32::MAX - 1).unwrap();
        l.charge_instructions(AppId(0), 0, u64::MAX / 2).unwrap();
    }

    /// One ledger op in the proptest interpreter below.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        ChargeSlot(u32),
        ReleaseSlot(u32),
        ChargeBytes(u32, u32),
        ReleaseBytes(u32, u32),
        ChargeInstr(u32, u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..4).prop_map(Op::ChargeSlot),
            (0u32..4).prop_map(Op::ReleaseSlot),
            ((0u32..4), (0u32..80)).prop_map(|(n, b)| Op::ChargeBytes(n, b)),
            ((0u32..4), (0u32..80)).prop_map(|(n, b)| Op::ReleaseBytes(n, b)),
            ((0u32..4), (0u64..50)).prop_map(|(n, i)| Op::ChargeInstr(n, i)),
        ]
    }

    proptest! {
        /// The ISSUE's quota-accounting contract: under any interleaving
        /// of charges and releases, (a) usage never exceeds quota on any
        /// mote, (b) successful releases free exactly the charged amount
        /// (shadow-model equality — no leak), and (c) over-releases are
        /// always refused (no double-free).
        #[test]
        fn prop_usage_never_exceeds_quota_and_releases_balance(
            ops in proptest::collection::vec(op_strategy(), 0..200),
            slots in 1u32..4,
            bytes in 1u32..120,
            instr in 1u64..500,
        ) {
            let quota = AppQuota::new(slots, bytes, instr);
            let mut l = ledger_one(quota);
            // Shadow model: plain per-node tallies mutated only on Ok.
            let mut shadow: BTreeMap<u32, Usage> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::ChargeSlot(n) => {
                        if l.charge_slot(AppId(0), n).is_ok() {
                            shadow.entry(n).or_default().slots += 1;
                        }
                    }
                    Op::ReleaseSlot(n) => {
                        let held = shadow.get(&n).map_or(0, |u| u.slots);
                        let r = l.release_slot(AppId(0), n);
                        if held == 0 {
                            prop_assert_eq!(r, Err(QuotaError::ReleaseUnderflow));
                        } else {
                            prop_assert!(r.is_ok());
                            shadow.entry(n).or_default().slots -= 1;
                        }
                    }
                    Op::ChargeBytes(n, b) => {
                        if l.charge_bytes(AppId(0), n, b).is_ok() {
                            shadow.entry(n).or_default().bytes += b;
                        }
                    }
                    Op::ReleaseBytes(n, b) => {
                        let held = shadow.get(&n).map_or(0, |u| u.bytes);
                        let r = l.release_bytes(AppId(0), n, b);
                        if b > held {
                            prop_assert_eq!(r, Err(QuotaError::ReleaseUnderflow));
                        } else {
                            prop_assert!(r.is_ok());
                            shadow.entry(n).or_default().bytes -= b;
                        }
                    }
                    Op::ChargeInstr(n, i) => {
                        if l.charge_instructions(AppId(0), n, i).is_ok() {
                            shadow.entry(n).or_default().instructions += i;
                        }
                    }
                }
                // Invariant (a): no mote ever over quota.
                for (&n, su) in &shadow {
                    let u = l.usage(AppId(0), n);
                    prop_assert_eq!(u, *su, "ledger drifted from shadow model");
                    prop_assert!(u.slots <= quota.agent_slots);
                    prop_assert!(u.bytes <= quota.tuple_bytes);
                    prop_assert!(u.instructions <= quota.instr_budget);
                }
            }
            // Invariant (b): releasing everything the shadow says is held
            // succeeds and drains the ledger to zero — what was charged is
            // exactly what can be freed.
            for (&n, su) in &shadow {
                for _ in 0..su.slots {
                    prop_assert!(l.release_slot(AppId(0), n).is_ok());
                }
                if su.bytes > 0 {
                    prop_assert!(l.release_bytes(AppId(0), n, su.bytes).is_ok());
                }
                let after = l.usage(AppId(0), n);
                prop_assert_eq!(after.slots, 0);
                prop_assert_eq!(after.bytes, 0);
                // Invariant (c): one more release of anything is refused.
                prop_assert_eq!(l.release_slot(AppId(0), n), Err(QuotaError::ReleaseUnderflow));
                if su.bytes > 0 {
                    prop_assert_eq!(
                        l.release_bytes(AppId(0), n, 1),
                        Err(QuotaError::ReleaseUnderflow)
                    );
                }
            }
        }
    }
}
