//! Middleware configuration: the paper's fixed values as named constants,
//! and the few settings a workload varies as [`AgillaConfig`].

use wsn_sim::SimDuration;

/// End-to-end (ablation) migration messages need a whole-path round trip per
/// acknowledgement, so hop timeouts and receiver watchdogs scale by this
/// factor relative to the paper's 0.1 s one-hop values.
pub const E2E_ACK_TIMEOUT_FACTOR: u64 = 5;

/// Maximum candidate switches one reliable session may make under
/// [`AgillaConfig::hop_failover`] before declaring failure. Bounding this
/// keeps the total retransmission window finite — in particular the
/// server-side reply-cache TTL ([`AgillaConfig::remote_reply_ttl`]) must
/// outlive *every* window the initiator can burn, across all candidates,
/// or a reissued `rout` after failover could re-execute and duplicate its
/// tuple. Greedy candidates are strictly-closer neighbors, so on the
/// paper's grid there are at most 3 alternates anyway.
pub const MAX_HOP_FAILOVERS: usize = 3;

/// Concurrent agents per node: "By default the agent manager can handle up
/// to 4 agents" (Section 3.2).
pub const MAX_AGENTS: usize = 4;

/// Instruction-memory block size: "the instruction manager allocates the
/// minimum number of 22 byte blocks necessary" (Section 3.2).
pub const CODE_BLOCK_BYTES: usize = 22;

/// Instruction-memory blocks: "By default, the instruction manager is
/// allocated 440 bytes (20 blocks)" (Section 3.2).
pub const CODE_BLOCKS: usize = 20;

/// The code budget in bytes: [`CODE_BLOCKS`] × [`CODE_BLOCK_BYTES`] = 440.
pub const CODE_BUDGET: usize = CODE_BLOCKS * CODE_BLOCK_BYTES;

// The VM checks code against its own copy of the budget (in
// `AgentState::with_code` and on every migration arrival), so the two must
// not drift apart.
const _: () = assert!(CODE_BUDGET == agilla_vm::DEFAULT_CODE_BUDGET);

/// Tuple-space arena bytes: 600 by default (Section 3.2).
pub const TUPLE_SPACE_BYTES: usize = 600;

/// Reaction registry budget: 400 bytes / 10 reactions (Section 3.2).
pub const REACTION_REGISTRY_BYTES: usize = 400;

/// Reaction registry slots (see [`REACTION_REGISTRY_BYTES`]).
pub const REACTION_REGISTRY_SLOTS: usize = 10;

/// Engine slice: "each agent can execute a fixed number of instructions
/// before switching context. The default number of instructions is 4"
/// (Section 3.2).
pub const ENGINE_SLICE: u32 = 4;

/// Migration ack timeout: "If a one-hop acknowledgement is not received
/// within 0.1 seconds, the message is retransmitted" (Section 3.2). LPL
/// widens it ([`AgillaConfig::migration_ack_timeout`]).
pub const MIGRATION_ACK_TIMEOUT: SimDuration = SimDuration::from_millis(100);

/// Migration retransmissions: "This repeats up for four times"
/// (Section 3.2).
pub const MIGRATION_RETX: u32 = 4;

/// Receiver abort: "If the operation stalls for over 0.25 seconds, the
/// receiver aborts" (Section 3.2). LPL widens it
/// ([`AgillaConfig::migration_receiver_abort`]).
pub const MIGRATION_RECEIVER_ABORT: SimDuration = SimDuration::from_millis(250);

/// Remote tuple-space retransmissions: "re-transmits the request at most
/// twice" (Section 3.2).
pub const REMOTE_OP_RETX: u32 = 2;

// Software-path costs, calibrated so the simulated operation latencies
// land on the paper's measurements (≈55 ms one-hop remote tuple-space ops,
// ≈225 ms one-hop migrations; Figs. 10–11). The `fig10_latency` and
// `fig11_remote_ops` binaries replay the calibration.

/// Serializing an agent and opening a sender session. Covers the
/// instruction manager packaging code blocks and the tuple-space manager
/// packaging reactions (Section 3.2).
pub const MIGRATION_SENDER_SETUP: SimDuration = SimDuration::from_millis(50);

/// Installing an arrived agent: allocation, reaction re-registration,
/// scheduling.
pub const MIGRATION_RECEIVER_RESTORE: SimDuration = SimDuration::from_millis(55);

/// Handling one migration data message at the receiver (copy into the
/// reassembly buffer, ack turnaround).
pub const MIGRATION_MSG_HANDLING: SimDuration = SimDuration::from_millis(20);

/// Executing a remote tuple-space request at the destination.
pub const REMOTE_OP_SERVICE: SimDuration = SimDuration::from_micros(4_200);

/// Gap between a mote finishing one frame and starting the next queued one
/// (radio turnaround + task latency).
pub const TX_TURNAROUND: SimDuration = SimDuration::from_micros(1_500);

/// Per-hop software cost of geographically forwarding a remote tuple-space
/// message at an intermediate node.
pub const GEOROUTING_FORWARD: SimDuration = SimDuration::from_millis(8);

/// The middleware settings a workload varies. Everything the paper fixes
/// is a constant of this module instead.
#[derive(Debug, Clone)]
pub struct AgillaConfig {
    /// Remote tuple-space timeout: "the initiator timeouts after 2 seconds"
    /// (Section 3.2). LPL widens it ([`AgillaConfig::remote_timeout`]).
    pub remote_op_timeout: SimDuration,
    /// Location-address matching tolerance ε, grid units (Section 2.2).
    pub epsilon: u16,
    /// Neighbor-beacon period (default [`wsn_net::BEACON_PERIOD`]).
    /// Energy experiments dial this: beacons are the dominant idle traffic,
    /// and micro-measurements of a single operation's joules stretch the
    /// period so no beacon lands inside the measurement window.
    pub beacon_period: SimDuration,
    /// When `true`, migration uses the paper's final hop-by-hop acknowledged
    /// protocol; `false` selects the end-to-end variant the paper tried and
    /// rejected ("We tried using end-to-end communication ... but found the
    /// high packet-loss probability over multiple links made this
    /// unacceptably prone to failure", Section 3.2). Kept for the ablation.
    pub hop_by_hop_migration: bool,
    /// When `true`, a reliable session that exhausts its retransmission
    /// budget toward one greedy next hop fails over to the next candidate in
    /// [`wsn_net::next_hop_candidates`] order before declaring failure —
    /// how sessions survive a next hop whose battery just died. `false`
    /// (default) keeps the paper's single-candidate behaviour, so existing
    /// figures are unchanged.
    pub hop_failover: bool,
    /// When `true` (default), injection
    /// ([`inject_source`](crate::AgillaNetwork::inject_source) and its
    /// siblings) runs the static bytecode verifier over every injected
    /// program and refuses unverifiable agents with
    /// [`AgillaError::Unverifiable`](crate::AgillaError::Unverifiable)
    /// instead of letting the interpreter fault mid-mission. Verification
    /// changes nothing about how an accepted agent executes, so every
    /// figure is byte-identical with it on; `false` restores the paper's
    /// accept-anything behaviour for the fault-injection benches.
    pub verify_on_inject: bool,
    /// Energy accounting and duty-cycling; disabled by default, in which
    /// case nothing in the simulation changes by a single bit.
    pub energy: EnergyConfig,
}

impl AgillaConfig {
    /// The low-power-listening check interval in force: set, with energy
    /// accounting on. A check interval with `energy.enabled == false` is
    /// inert: `enabled: false` promises no behavioural change.
    pub(crate) fn lpl_interval(&self) -> Option<SimDuration> {
        self.energy
            .lpl_check_interval
            .filter(|_| self.energy.enabled)
    }

    /// The B-MAC preamble stretch, µs: the LPL check interval in force, or
    /// 0. Every stop-and-wait timeout is widened by a multiple of it, so
    /// duty-cycled runs do not spuriously time out while a frame is still
    /// (legitimately) in its stretched preamble.
    fn lpl_stretch_us(&self) -> u64 {
        self.lpl_interval().map_or(0, SimDuration::as_micros)
    }

    /// [`MIGRATION_ACK_TIMEOUT`] plus two preamble stretches: each
    /// acknowledged exchange is one data frame plus one ack frame, both
    /// stretched.
    pub fn migration_ack_timeout(&self) -> SimDuration {
        SimDuration::from_micros(MIGRATION_ACK_TIMEOUT.as_micros() + 2 * self.lpl_stretch_us())
    }

    /// [`MIGRATION_RECEIVER_ABORT`] plus three preamble stretches.
    pub fn migration_receiver_abort(&self) -> SimDuration {
        SimDuration::from_micros(MIGRATION_RECEIVER_ABORT.as_micros() + 3 * self.lpl_stretch_us())
    }

    /// [`AgillaConfig::remote_op_timeout`] plus ten preamble stretches: a
    /// remote op crosses up to ~5 hops out and back on the testbed.
    pub fn remote_timeout(&self) -> SimDuration {
        SimDuration::from_micros(self.remote_op_timeout.as_micros() + 10 * self.lpl_stretch_us())
    }

    /// TTL of the served remote-op reply cache: the initiator's entire
    /// retransmit window — `remote_timeout() × (1 + REMOTE_OP_RETX)` — so a
    /// cached reply always outlives every retransmission of the request it
    /// answers. A duplicate `rout` arriving at the end of the window re-acks
    /// from the cache instead of inserting a second tuple, and the entry
    /// expires long before the 16-bit op-id space could wrap back around.
    ///
    /// With [`AgillaConfig::hop_failover`] on, the initiator gets a fresh
    /// budget per candidate (up to [`MAX_HOP_FAILOVERS`] switches), so the
    /// TTL scales by the candidate count — otherwise a reissue after
    /// failover could arrive past the single-window TTL and re-execute.
    pub fn remote_reply_ttl(&self) -> SimDuration {
        let windows = if self.hop_failover {
            1 + MAX_HOP_FAILOVERS as u64
        } else {
            1
        };
        SimDuration::from_micros(
            self.remote_timeout().as_micros() * (u64::from(REMOTE_OP_RETX) + 1) * windows,
        )
    }

    /// TTL of the completed-migration-session cache: the sender's worst-case
    /// per-message retransmit window (`migration_ack_timeout() × (1 +
    /// MIGRATION_RETX)`, scaled by [`E2E_ACK_TIMEOUT_FACTOR`] because
    /// end-to-end sessions stretch each timeout), doubled for queueing
    /// slack. Far below any plausible time for the global session counter to
    /// wrap back to the same id.
    pub fn migration_done_ttl(&self) -> SimDuration {
        SimDuration::from_micros(
            self.migration_ack_timeout().as_micros()
                * (u64::from(MIGRATION_RETX) + 1)
                * E2E_ACK_TIMEOUT_FACTOR
                * 2,
        )
    }
}

impl Default for AgillaConfig {
    fn default() -> Self {
        AgillaConfig {
            remote_op_timeout: SimDuration::from_secs(2),
            epsilon: 0,
            beacon_period: wsn_net::BEACON_PERIOD,
            hop_by_hop_migration: true,
            hop_failover: false,
            verify_on_inject: true,
            energy: EnergyConfig::default(),
        }
    }
}

/// Energy accounting, batteries, and low-power listening.
///
/// Disabled by default: the paper's evaluation never ran long enough to
/// drain a battery, and every fig9–fig12 number must stay byte-identical.
/// Enabling it attaches a MICA2 [`EnergyMeter`](wsn_radio::EnergyMeter) to
/// every node; a node whose battery reaches 0 J is removed from the radio
/// topology and its in-flight work is dropped (sessions toward it recover
/// via retransmission and, with [`AgillaConfig::hop_failover`], candidate
/// failover).
#[derive(Debug, Clone)]
pub struct EnergyConfig {
    /// Master switch. `false` ⇒ no meters, no LPL, no behavioural change.
    pub enabled: bool,
    /// Per-node battery capacity, joules. The default is two AA cells
    /// (≈30.8 kJ); lifetime experiments shrink this so deaths happen in
    /// simulated minutes instead of months.
    pub battery_joules: f64,
    /// B-MAC low-power listening check interval. `None` keeps radios always
    /// on (the paper's stack). When set, idle-listen drain scales down by
    /// the duty cycle and every transmission pays a stretched preamble; the
    /// ack/abort/reply timeouts are widened by the stretch so the protocols
    /// keep working at long intervals (see
    /// [`AgillaConfig::migration_ack_timeout`]).
    pub lpl_check_interval: Option<SimDuration>,
}

impl EnergyConfig {
    /// Accounting on, with `battery_joules` per node and radios always on.
    pub fn with_battery(battery_joules: f64) -> Self {
        EnergyConfig {
            enabled: true,
            battery_joules,
            lpl_check_interval: None,
        }
    }

    /// Accounting on with low-power listening at `check_interval`.
    pub fn with_lpl(battery_joules: f64, check_interval: SimDuration) -> Self {
        EnergyConfig {
            enabled: true,
            battery_joules,
            lpl_check_interval: Some(check_interval),
        }
    }
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            enabled: false,
            battery_joules: wsn_radio::energy::AA_BATTERY_J,
            lpl_check_interval: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(MAX_AGENTS, 4);
        assert_eq!(CODE_BLOCK_BYTES, 22);
        assert_eq!(CODE_BLOCKS, 20);
        assert_eq!(CODE_BUDGET, 440);
        assert_eq!(TUPLE_SPACE_BYTES, 600);
        assert_eq!(REACTION_REGISTRY_BYTES, 400);
        assert_eq!(REACTION_REGISTRY_SLOTS, 10);
        assert_eq!(ENGINE_SLICE, 4);
        assert_eq!(MIGRATION_ACK_TIMEOUT.as_millis(), 100);
        assert_eq!(MIGRATION_RETX, 4);
        assert_eq!(MIGRATION_RECEIVER_ABORT.as_millis(), 250);
        assert_eq!(REMOTE_OP_RETX, 2);
        let c = AgillaConfig::default();
        assert_eq!(c.remote_op_timeout.as_millis(), 2_000);
        assert_eq!(c.epsilon, 0);
        assert!(c.hop_by_hop_migration);
        assert!(!c.hop_failover, "single-candidate greedy, as evaluated");
        assert!(c.verify_on_inject, "bad bytecode is refused at injection");
        assert!(!c.energy.enabled, "no meters unless asked");
        assert!(c.energy.lpl_check_interval.is_none());
    }

    /// The timeouts and cache TTLs the protocols derive from a config:
    /// `(ack ms, abort ms, remote ms, reply TTL ms, migration-done TTL ms)`.
    fn derived(c: &AgillaConfig) -> (u64, u64, u64, u64, u64) {
        (
            c.migration_ack_timeout().as_millis(),
            c.migration_receiver_abort().as_millis(),
            c.remote_timeout().as_millis(),
            c.remote_reply_ttl().as_millis(),
            c.migration_done_ttl().as_millis(),
        )
    }

    #[test]
    fn lpl_adjustment_widens_timeouts_only_when_lpl_is_on() {
        let plain = AgillaConfig::default();
        assert_eq!(derived(&plain), (100, 250, 2_000, 6_000, 5_000));

        // A check interval with the master switch off is inert: the
        // `enabled: false` contract is "no behavioural change whatsoever".
        let disabled = AgillaConfig {
            energy: EnergyConfig {
                enabled: false,
                lpl_check_interval: Some(SimDuration::from_millis(100)),
                ..EnergyConfig::default()
            },
            ..AgillaConfig::default()
        };
        assert_eq!(derived(&disabled), derived(&plain));

        // LPL at 100 ms widens ack, abort and remote timeouts by 2, 3 and
        // 10 stretches, and both TTLs follow.
        let lpl = AgillaConfig {
            energy: EnergyConfig::with_lpl(100.0, SimDuration::from_millis(100)),
            ..AgillaConfig::default()
        };
        assert_eq!(derived(&lpl), (300, 550, 3_000, 9_000, 15_000));
    }

    #[test]
    fn derived_ttls_cover_the_retransmit_windows() {
        let c = AgillaConfig::default();
        // 2 s timeout, 2 retries: the initiator can retransmit until 6 s
        // after issue, so a cached reply must live at least that long.
        assert_eq!(c.remote_reply_ttl().as_millis(), 6_000);
        // Failover grants a fresh budget per candidate: the TTL must cover
        // the initial window plus MAX_HOP_FAILOVERS failover windows.
        let failover = AgillaConfig {
            hop_failover: true,
            ..AgillaConfig::default()
        };
        assert_eq!(failover.remote_reply_ttl().as_millis(), 24_000);
        assert!(
            c.remote_reply_ttl().as_micros()
                >= c.remote_timeout().as_micros() * (u64::from(REMOTE_OP_RETX) + 1)
        );
        // 100 ms ack timeout x 5 tries x 5 (e2e stretch) x 2 slack.
        assert_eq!(c.migration_done_ttl().as_millis(), 5_000);
        assert!(
            c.migration_done_ttl().as_micros()
                > c.migration_ack_timeout().as_micros() * (u64::from(MIGRATION_RETX) + 1)
        );
    }

    #[test]
    fn energy_config_constructors() {
        let e = EnergyConfig::with_battery(5.0);
        assert!(e.enabled);
        assert!(e.lpl_check_interval.is_none());
        let e = EnergyConfig::with_lpl(5.0, SimDuration::from_millis(50));
        assert!(e.enabled);
        assert_eq!(e.lpl_check_interval.unwrap().as_millis(), 50);
        assert!(EnergyConfig::default().battery_joules > 10_000.0, "2x AA");
    }
}
