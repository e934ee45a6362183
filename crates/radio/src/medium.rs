//! The shared broadcast medium.

use std::collections::HashMap;

use wsn_common::NodeId;
use wsn_sim::{RngStream, SimDuration, SimTime};

use crate::energy::{EnergyLedger, EnergyState};
use crate::frame::Frame;
use crate::loss::{GilbertElliott, LossModel};
use crate::topology::Topology;

/// What happened to one copy of a transmitted frame at one receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The frame arrives intact.
    Delivered,
    /// The frame was corrupted by bit errors or interference.
    LostChannel,
    /// The frame overlapped another reception at this receiver.
    LostCollision,
}

/// The result of one transmission: every in-range receiver's fate, sharing
/// one completion time (broadcast copies of a frame all finish together, at
/// transmit start + air time).
///
/// Returning one batch per frame — rather than one record per receiver —
/// lets the driver schedule a single rx-fanout event per transmission
/// instead of cloning the frame into per-receiver events, which is the
/// dominant event population in dense networks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxBatch {
    /// When reception completes at every receiver.
    pub arrive_at: SimTime,
    /// Per in-range receiver: whether and how its copy survived, in
    /// deterministic neighbor order.
    pub outcomes: Vec<(NodeId, DeliveryOutcome)>,
}

/// The broadcast radio medium: topology + loss + collision bookkeeping.
///
/// The caller (the network stack) asks the medium to `transmit` a frame at a
/// given start time; the medium decides, per in-range receiver, whether that
/// copy survives, and returns the deliveries for the caller to schedule. The
/// medium is purely *decisional* — it owns no event queue — which keeps the
/// radio layer reusable under any driver (tests call it directly).
///
/// # Examples
///
/// ```
/// use wsn_radio::{Frame, LossModel, Medium, Topology};
/// use wsn_common::NodeId;
/// use wsn_sim::SimTime;
///
/// let topo = Topology::line(3);
/// let mut medium = Medium::new(topo, LossModel::perfect(), 7);
/// let frame = Frame::broadcast(NodeId(0), vec![1, 2, 3]);
/// let batch = medium.transmit(SimTime::ZERO, &frame);
/// assert_eq!(batch.outcomes.len(), 1); // only the adjacent node hears it
/// assert_eq!(batch.outcomes[0].0, NodeId(1));
/// ```
#[derive(Debug)]
pub struct Medium {
    topology: Topology,
    loss: LossModel,
    /// Per-transmitter loss streams: `rng[src]` is
    /// `derive(seed, "radio.medium").substream(src)`. Every draw a
    /// transmission makes (burst-channel advance and per-receiver loss
    /// chances) comes from the transmitter's own stream, so draw order
    /// depends only on that node's transmission order — never on how
    /// events from different nodes interleave globally.
    rng: Vec<RngStream>,
    /// Per directed link (src, dst): burst channel state.
    burst_state: HashMap<(NodeId, NodeId), GilbertElliott>,
    /// Per receiver: time until which its radio is busy receiving.
    rx_busy_until: Vec<SimTime>,
    /// Per transmitter: when its latest frame leaves the air. Carrier sense
    /// reads only the slots of the sensing node's cell neighborhood, so its
    /// cost follows local density however many frames are in the air
    /// network-wide (dozens at any instant in a 10k-mote beacon field).
    tx_until: Vec<SimTime>,
    /// The latest `tx_until` of any node: once `now` reaches it the whole
    /// network is silent and carrier sense answers without a scan.
    air_until: SimTime,
    /// Reused per-frame neighbor buffer, so a transmission allocates only
    /// the outcome list it hands back.
    nbr_buf: Vec<NodeId>,
    frames_sent: u64,
    frames_lost: u64,
    /// Extra air time prepended to every frame: the stretched preamble of a
    /// B-MAC-style low-power-listening MAC. Zero when LPL is off, in which
    /// case timing is bit-for-bit identical to the plain CC1000 stack.
    preamble_stretch: SimDuration,
    /// Optional per-node energy accounting; `None` costs nothing.
    energy: Option<EnergyLedger>,
}

impl Medium {
    /// Creates a medium over `topology` with the given loss model; `seed`
    /// drives all loss draws deterministically, via one substream per
    /// transmitter.
    pub fn new(topology: Topology, loss: LossModel, seed: u64) -> Self {
        let n = topology.len();
        let root = RngStream::derive(seed, "radio.medium");
        let rng = (0..n).map(|i| root.substream(i as u64)).collect();
        Medium {
            topology,
            loss,
            rng,
            burst_state: HashMap::new(),
            rx_busy_until: vec![SimTime::ZERO; n],
            tx_until: vec![SimTime::ZERO; n],
            air_until: SimTime::ZERO,
            nbr_buf: Vec::new(),
            frames_sent: 0,
            frames_lost: 0,
            preamble_stretch: SimDuration::ZERO,
            energy: None,
        }
    }

    /// The topology the medium operates over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Drops `node` out of the radio graph (battery depletion): it stops
    /// hearing, being heard, and contributing carrier.
    pub fn remove_node(&mut self, node: NodeId) {
        self.topology.remove_node(node);
    }

    /// Permanently severs the `a`–`b` link in both directions (scenario
    /// fault injection) while both nodes stay up.
    pub fn drop_link(&mut self, a: NodeId, b: NodeId) {
        self.topology.drop_link(a, b);
    }

    /// Restores a previously severed `a`–`b` link (scenario fault healing);
    /// the connectivity rule decides afresh whether the two are in range.
    pub fn heal_link(&mut self, a: NodeId, b: NodeId) {
        self.topology.heal_link(a, b);
    }

    /// Moves `node` to `to` (mobility): links form and sever by the
    /// connectivity rule against the new position from this transmission
    /// on, and a distance-driven loss ramp (if attached) sees the new
    /// geometry immediately.
    pub fn move_node(&mut self, node: NodeId, to: wsn_common::Location) {
        self.topology.move_node(node, to);
    }

    /// Replaces the channel loss model mid-run (a scenario stepping the
    /// loss rate). Per-link burst channels are reset so the new model's
    /// burst template — or its absence — applies from now on.
    pub fn set_loss(&mut self, loss: LossModel) {
        self.loss = loss;
        self.burst_state.clear();
    }

    /// Attaches per-node energy meters; every subsequent transmission
    /// charges the sender's TX state and each in-range receiver's RX state.
    pub fn attach_energy(&mut self, ledger: EnergyLedger) {
        self.energy = Some(ledger);
    }

    /// The energy ledger, if accounting is enabled.
    pub fn energy(&self) -> Option<&EnergyLedger> {
        self.energy.as_ref()
    }

    /// Mutable energy ledger, for drivers charging CPU/sensor states.
    pub fn energy_mut(&mut self) -> Option<&mut EnergyLedger> {
        self.energy.as_mut()
    }

    /// Sets the stretched-preamble overhead every frame pays (B-MAC LPL:
    /// the preamble must outlast the receivers' check interval).
    pub fn set_preamble_stretch(&mut self, stretch: SimDuration) {
        self.preamble_stretch = stretch;
    }

    /// Air time of `frame` including the LPL preamble stretch — what the
    /// MAC must use for transmit-queue pacing when LPL is on.
    pub fn effective_air_time(&self, frame: &Frame) -> SimDuration {
        frame.air_time() + self.preamble_stretch
    }

    /// Whether the channel is sensed busy at `node`: its own frame is still
    /// in the air, or a node in range is transmitting. Used by the MAC for
    /// CSMA.
    ///
    /// "In range" is judged against the topology as it stands at `now`, not
    /// as it stood when the frame started: a mote that moves into range,
    /// dies, or loses or regains a link mid-frame changes what is sensed
    /// from that instant on.
    pub fn channel_busy(&self, now: SimTime, node: NodeId) -> bool {
        if self.air_until <= now {
            return false;
        }
        let on_air = |n: NodeId| self.tx_until[n.index()] > now;
        on_air(node) || self.topology.any_neighbor(node, on_air)
    }

    /// Transmits `frame` starting at `now`; returns one [`TxBatch`] covering
    /// every in-range receiver, whatever the link destination — the MAC
    /// filters by address on arrival, as real hardware does. Energy for the
    /// sender and every receiver is charged in this same pass.
    pub fn transmit(&mut self, now: SimTime, frame: &Frame) -> TxBatch {
        let air = self.effective_air_time(frame);
        let end = now + air;
        self.frames_sent += 1;
        // This frame replaces the sender's previous one, if it is somehow
        // still in the air.
        self.tx_until[frame.src.index()] = end;
        self.air_until = self.air_until.max(end);
        if let Some(ledger) = self.energy.as_mut() {
            // The sender pays for the whole transmission, stretched preamble
            // included — the LPL bargain: senders spend more so idle
            // listeners can sleep.
            let m = ledger.meter_mut(frame.src);
            m.advance(now);
            m.charge(EnergyState::Tx, air);
        }

        let mut neighbors = std::mem::take(&mut self.nbr_buf);
        self.topology.neighbors_into(frame.src, &mut neighbors);
        // The geometry-free loss probability depends on the frame alone.
        let frame_p = self.loss.frame_loss_probability(frame.on_air_bits());
        let mut outcomes = Vec::with_capacity(neighbors.len());
        for &dst in &neighbors {
            let outcome = self.decide(now, end, frame, dst, frame_p);
            if outcome != DeliveryOutcome::Delivered {
                self.frames_lost += 1;
            }
            if let Some(ledger) = self.energy.as_mut() {
                // Receivers wake at the preamble's tail and capture the
                // frame proper; corrupted and collided copies cost the same
                // radio-on time as good ones.
                let m = ledger.meter_mut(dst);
                m.advance(now);
                m.charge(EnergyState::Rx, frame.air_time());
            }
            outcomes.push((dst, outcome));
        }
        self.nbr_buf = neighbors;
        TxBatch {
            arrive_at: end,
            outcomes,
        }
    }

    fn decide(
        &mut self,
        now: SimTime,
        end: SimTime,
        frame: &Frame,
        dst: NodeId,
        frame_p: f64,
    ) -> DeliveryOutcome {
        // Collision: the receiver is still capturing a previous frame.
        let busy_until = &mut self.rx_busy_until[dst.index()];
        if *busy_until > now {
            return DeliveryOutcome::LostCollision;
        }
        *busy_until = end;

        // Burst state for this directed link. The directed (src, dst) state
        // is only ever advanced while `src` transmits, so drawing from the
        // transmitter's substream keeps each link's dwell sequence a pure
        // function of that node's transmission history.
        let rng = &mut self.rng[frame.src.index()];
        if let Some(template) = &self.loss.bursts {
            let ge = self
                .burst_state
                .entry((frame.src, dst))
                .or_insert_with(|| template.clone());
            if ge.advance(now, rng) {
                let bad_loss = ge.bad_loss;
                if rng.chance(bad_loss) {
                    return DeliveryOutcome::LostChannel;
                }
            }
        }

        // The geometry-free path uses the frame's own probability; with a
        // distance ramp attached, the live inter-node distance folds into
        // this single draw, so the RNG consumption — and thus every
        // downstream outcome — is identical whether or not the channel is
        // position-driven.
        let p = if self.loss.distance.is_some() {
            let dist = self
                .topology
                .location(frame.src)
                .distance(self.topology.location(dst));
            self.loss
                .frame_loss_probability_at(frame.on_air_bits(), dist)
        } else {
            frame_p
        };
        if rng.chance(p) {
            DeliveryOutcome::LostChannel
        } else {
            DeliveryOutcome::Delivered
        }
    }

    /// Total frames transmitted.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Total per-receiver copies lost (channel + collision).
    pub fn frames_lost(&self) -> u64 {
        self.frames_lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::DistanceLoss;
    use crate::topology::Connectivity;
    use proptest::prelude::*;
    use wsn_common::Location;

    fn perfect_line(n: i16) -> Medium {
        Medium::new(Topology::line(n), LossModel::perfect(), 1)
    }

    /// The medium before carrier sense went through the cell grid, kept as
    /// a behavioural oracle: a network-wide list of in-flight frames that
    /// carrier sense scans in full, a `HashMap` collision table, and
    /// receivers found by a full scan of the topology.
    struct ModelMedium {
        topology: Topology,
        loss: LossModel,
        rng: Vec<RngStream>,
        burst_state: HashMap<(NodeId, NodeId), GilbertElliott>,
        rx_busy_until: HashMap<NodeId, SimTime>,
        tx_busy: Vec<(NodeId, SimTime)>,
        preamble_stretch: SimDuration,
    }

    impl ModelMedium {
        fn new(topology: Topology, loss: LossModel, seed: u64) -> Self {
            let root = RngStream::derive(seed, "radio.medium");
            let rng = (0..topology.len())
                .map(|i| root.substream(i as u64))
                .collect();
            ModelMedium {
                topology,
                loss,
                rng,
                burst_state: HashMap::new(),
                rx_busy_until: HashMap::new(),
                tx_busy: Vec::new(),
                preamble_stretch: SimDuration::ZERO,
            }
        }

        fn channel_busy(&self, now: SimTime, node: NodeId) -> bool {
            self.tx_busy.iter().any(|&(tx, until)| {
                until > now && (tx == node || self.topology.are_neighbors(tx, node))
            })
        }

        fn transmit(&mut self, now: SimTime, frame: &Frame) -> TxBatch {
            let end = now + frame.air_time() + self.preamble_stretch;
            self.tx_busy
                .retain(|&(tx, until)| until > now && tx != frame.src);
            self.tx_busy.push((frame.src, end));
            let receivers: Vec<NodeId> = self
                .topology
                .nodes()
                .filter(|&n| self.topology.are_neighbors(frame.src, n))
                .collect();
            let outcomes = receivers
                .into_iter()
                .map(|dst| (dst, self.decide(now, end, frame, dst)))
                .collect();
            TxBatch {
                arrive_at: end,
                outcomes,
            }
        }

        fn decide(
            &mut self,
            now: SimTime,
            end: SimTime,
            frame: &Frame,
            dst: NodeId,
        ) -> DeliveryOutcome {
            let busy_until = self
                .rx_busy_until
                .get(&dst)
                .copied()
                .unwrap_or(SimTime::ZERO);
            if busy_until > now {
                return DeliveryOutcome::LostCollision;
            }
            self.rx_busy_until.insert(dst, end);
            let rng = &mut self.rng[frame.src.index()];
            if let Some(template) = &self.loss.bursts {
                let ge = self
                    .burst_state
                    .entry((frame.src, dst))
                    .or_insert_with(|| template.clone());
                if ge.advance(now, rng) && rng.chance(ge.bad_loss) {
                    return DeliveryOutcome::LostChannel;
                }
            }
            let dist = self
                .topology
                .location(frame.src)
                .distance(self.topology.location(dst));
            let p = self
                .loss
                .frame_loss_probability_at(frame.on_air_bits(), dist);
            if rng.chance(p) {
                DeliveryOutcome::LostChannel
            } else {
                DeliveryOutcome::Delivered
            }
        }
    }

    /// Two motes `gap` grid units apart on the x axis under `Range(2.0)`,
    /// with a 20-byte frame from mote 0 already in the air; returns the
    /// medium and the frame's end of air.
    fn pair_mid_frame(gap: i16) -> (Medium, SimTime) {
        let topo = Topology::new(
            vec![Location::new(0, 0), Location::new(gap, 0)],
            Connectivity::Range(2.0),
        );
        let mut m = Medium::new(topo, LossModel::perfect(), 4);
        let batch = m.transmit(SimTime::ZERO, &Frame::broadcast(NodeId(0), vec![0; 20]));
        (m, batch.arrive_at)
    }

    #[test]
    fn mote_moving_into_range_mid_frame_senses_the_carrier() {
        let (mut m, end) = pair_mid_frame(5);
        let t = SimTime::from_micros(1_000);
        assert!(t < end);
        assert!(!m.channel_busy(t, NodeId(1)), "out of range at the start");
        m.move_node(NodeId(1), Location::new(1, 0));
        assert!(
            m.channel_busy(t, NodeId(1)),
            "carrier is judged against the live topology, not the one at transmit time"
        );
        m.move_node(NodeId(1), Location::new(5, 0));
        assert!(
            !m.channel_busy(t, NodeId(1)),
            "and leaving range silences it"
        );
    }

    #[test]
    fn removed_transmitter_stops_contributing_carrier_mid_frame() {
        let (mut m, end) = pair_mid_frame(1);
        let t = SimTime::from_micros(1_000);
        assert!(t < end);
        assert!(m.channel_busy(t, NodeId(1)));
        m.remove_node(NodeId(0));
        assert!(
            !m.channel_busy(t, NodeId(1)),
            "a dead mote's frame no longer occupies its neighbors' channel"
        );
    }

    #[test]
    fn dropped_link_mid_frame_silences_carrier_until_healed() {
        let (mut m, end) = pair_mid_frame(1);
        let t = SimTime::from_micros(1_000);
        assert!(t < end);
        m.drop_link(NodeId(0), NodeId(1));
        assert!(!m.channel_busy(t, NodeId(1)), "severed mid-frame");
        assert!(
            m.channel_busy(t, NodeId(0)),
            "the sender still hears itself"
        );
        m.heal_link(NodeId(1), NodeId(0));
        assert!(
            m.channel_busy(t, NodeId(1)),
            "healed while still in the air"
        );
        assert!(!m.channel_busy(end, NodeId(1)), "idle once the frame ends");
    }

    proptest! {
        /// Random interleavings of transmissions, carrier sense and
        /// topology changes — moves, deaths, dropped and healed links, many
        /// of them while frames are still in the air — give the same
        /// `channel_busy` answer at every node after every step, and the
        /// same `TxBatch` for every frame, as the full-scan oracle. Time
        /// only moves forward, as in the simulator.
        #[test]
        fn prop_matches_reference_medium(
            boot in prop::collection::btree_set((-5i16..=5, -5i16..=5), 2..=16),
            grid_adjacent in any::<bool>(),
            radius in 1.0f64..3.5,
            loss_pick in 0u8..4,
            stretch_ms in 0u64..3,
            seed in 0u64..1_000,
            ops in prop::collection::vec((0u8..12, 0u16..256, 0u16..256, 0u64..4_000), 1..120),
        ) {
            let positions: Vec<Location> =
                boot.into_iter().map(|(x, y)| Location::new(x, y)).collect();
            let connectivity = if grid_adjacent {
                Connectivity::GridAdjacent
            } else {
                Connectivity::Range(radius)
            };
            let loss = match loss_pick {
                0 => LossModel::perfect(),
                1 => LossModel::uniform(0.3),
                2 => {
                    let mut l = LossModel::mica2_testbed();
                    l.bursts = Some(GilbertElliott::new(0.01, 0.01, 0.8));
                    l
                }
                _ => LossModel::uniform(0.1).with_distance(DistanceLoss::new(0.5, 3.0, 0.6)),
            };
            let topo = Topology::new(positions, connectivity);
            let n = topo.len() as u16;
            let mut model = ModelMedium::new(topo.clone(), loss.clone(), seed);
            let mut m = Medium::new(topo, loss, seed);
            let stretch = SimDuration::from_millis(stretch_ms * 4);
            m.set_preamble_stretch(stretch);
            model.preamble_stretch = stretch;
            let mut dropped: Vec<(NodeId, NodeId)> = Vec::new();
            let mut lost = 0u64;
            let mut now = SimTime::ZERO;
            for (step, (op, a, b, dt)) in ops.into_iter().enumerate() {
                now += SimDuration::from_micros(dt);
                let node = NodeId(a % n);
                let other = NodeId(b % n);
                match op {
                    0..=3 => {
                        let frame = Frame::broadcast(node, vec![0; usize::from(b % 28)]);
                        let got = m.transmit(now, &frame);
                        let want = model.transmit(now, &frame);
                        prop_assert_eq!(&got, &want, "transmit at step {}", step);
                        lost += want
                            .outcomes
                            .iter()
                            .filter(|(_, o)| *o != DeliveryOutcome::Delivered)
                            .count() as u64;
                    }
                    4..=6 => {
                        let to = Location::new((b % 15) as i16 - 7, (b / 15 % 15) as i16 - 7);
                        m.move_node(node, to);
                        model.topology.move_node(node, to);
                    }
                    7 => {
                        m.remove_node(node);
                        model.topology.remove_node(node);
                    }
                    8 | 9 => {
                        m.drop_link(node, other);
                        model.topology.drop_link(node, other);
                        dropped.push((node, other));
                    }
                    _ => {
                        if !dropped.is_empty() {
                            let (x, y) = dropped.swap_remove(usize::from(b) % dropped.len());
                            m.heal_link(x, y);
                            model.topology.heal_link(x, y);
                        }
                    }
                }
                for probe in m.topology().nodes() {
                    prop_assert_eq!(
                        m.channel_busy(now, probe),
                        model.channel_busy(now, probe),
                        "channel_busy({:?}) at step {}", probe, step
                    );
                }
            }
            prop_assert_eq!(m.frames_lost(), lost);
        }
    }

    #[test]
    fn delivers_to_all_neighbors() {
        let mut m = perfect_line(3);
        // middle node: two neighbors
        let f = Frame::broadcast(NodeId(1), vec![0; 5]);
        let d = m.transmit(SimTime::ZERO, &f);
        assert_eq!(d.outcomes.len(), 2);
        assert!(d
            .outcomes
            .iter()
            .all(|(_, o)| *o == DeliveryOutcome::Delivered));
        assert!(d.arrive_at > SimTime::ZERO);
    }

    #[test]
    fn out_of_range_nodes_hear_nothing() {
        let mut m = perfect_line(5);
        let f = Frame::broadcast(NodeId(0), vec![0; 5]);
        let d = m.transmit(SimTime::ZERO, &f);
        assert_eq!(d.outcomes.len(), 1);
        assert_eq!(d.outcomes[0].0, NodeId(1));
    }

    #[test]
    fn uniform_loss_drops_roughly_that_fraction() {
        let topo = Topology::line(2);
        let mut m = Medium::new(topo, LossModel::uniform(0.3), 42);
        let mut lost = 0u32;
        let n: u32 = 10_000;
        for i in 0..n {
            let f = Frame::broadcast(NodeId(0), vec![0; 5]);
            // Space transmissions out so they never collide.
            let t = SimTime::from_micros(u64::from(i) * 1_000_000);
            let d = m.transmit(t, &f);
            if d.outcomes[0].1 != DeliveryOutcome::Delivered {
                lost += 1;
            }
        }
        let frac = f64::from(lost) / f64::from(n);
        assert!((0.27..0.33).contains(&frac), "loss fraction {frac}");
    }

    #[test]
    fn overlapping_receptions_collide() {
        // Y topology: nodes 0 and 2 both neighbors of 1, not of each other.
        let topo = Topology::new(
            vec![
                Location::new(0, 1),
                Location::new(1, 1),
                Location::new(2, 1),
            ],
            Connectivity::GridAdjacent,
        );
        let mut m = Medium::new(topo, LossModel::perfect(), 3);
        let f0 = Frame::broadcast(NodeId(0), vec![0; 20]);
        let f2 = Frame::broadcast(NodeId(2), vec![0; 20]);
        let d0 = m.transmit(SimTime::ZERO, &f0);
        // Hidden terminal: node 2 cannot hear node 0 and transmits over it.
        let d2 = m.transmit(SimTime::from_micros(100), &f2);
        assert_eq!(d0.outcomes[0].1, DeliveryOutcome::Delivered);
        assert_eq!(d2.outcomes[0].1, DeliveryOutcome::LostCollision);
    }

    #[test]
    fn sequential_transmissions_do_not_collide() {
        let mut m = perfect_line(2);
        let f = Frame::broadcast(NodeId(0), vec![0; 20]);
        let d1 = m.transmit(SimTime::ZERO, &f);
        let after = d1.arrive_at + SimDuration::from_micros(1);
        let d2 = m.transmit(after, &f);
        assert_eq!(d2.outcomes[0].1, DeliveryOutcome::Delivered);
    }

    #[test]
    fn channel_busy_during_neighbor_tx() {
        let mut m = perfect_line(3);
        let f = Frame::broadcast(NodeId(0), vec![0; 20]);
        m.transmit(SimTime::ZERO, &f);
        assert!(m.channel_busy(SimTime::from_micros(10), NodeId(1)));
        assert!(m.channel_busy(SimTime::from_micros(10), NodeId(0)));
        // Node 2 is out of range of node 0: channel idle there.
        assert!(!m.channel_busy(SimTime::from_micros(10), NodeId(2)));
        // Long after the frame: idle everywhere.
        assert!(!m.channel_busy(SimTime::from_micros(10_000_000), NodeId(1)));
    }

    #[test]
    fn statistics_accumulate() {
        let topo = Topology::line(2);
        let mut m = Medium::new(topo, LossModel::uniform(1.0), 9);
        let f = Frame::broadcast(NodeId(0), vec![0; 5]);
        m.transmit(SimTime::ZERO, &f);
        assert_eq!(m.frames_sent(), 1);
        assert_eq!(m.frames_lost(), 1);
    }

    #[test]
    fn determinism_same_seed_same_outcomes() {
        let run = |seed| {
            let topo = Topology::line(2);
            let mut m = Medium::new(topo, LossModel::uniform(0.5), seed);
            (0..100)
                .map(|i| {
                    let f = Frame::broadcast(NodeId(0), vec![0; 5]);
                    let t = SimTime::from_micros(i * 1_000_000);
                    m.transmit(t, &f).outcomes[0].1
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should differ somewhere");
    }

    #[test]
    fn energy_accounting_charges_tx_and_rx() {
        use crate::energy::{EnergyLedger, EnergyState};

        let mut m = perfect_line(3);
        m.attach_energy(EnergyLedger::new(3, 100.0, 1.0));
        let f = Frame::broadcast(NodeId(1), vec![0; 20]);
        let t = SimTime::from_micros(1_000_000);
        m.transmit(t, &f);
        let ledger = m.energy().expect("attached");
        let sender = ledger.meter(NodeId(1)).breakdown();
        let hearer = ledger.meter(NodeId(0)).breakdown();
        assert!(sender.state(EnergyState::Tx) > 0.0);
        assert_eq!(sender.state(EnergyState::Rx), 0.0);
        assert!(hearer.state(EnergyState::Rx) > 0.0);
        // Both idled (listening) for the first simulated second.
        assert!(sender.state(EnergyState::Listen) > 0.0);
        assert!(hearer.state(EnergyState::Listen) > 0.0);
    }

    #[test]
    fn preamble_stretch_extends_air_and_tx_cost() {
        use crate::energy::{EnergyLedger, EnergyState};

        let stretch = SimDuration::from_millis(100);
        let mut plain = perfect_line(2);
        let mut lpl = perfect_line(2);
        lpl.set_preamble_stretch(stretch);
        lpl.attach_energy(EnergyLedger::new(2, 100.0, 0.01));
        let f = Frame::broadcast(NodeId(0), vec![0; 5]);
        assert_eq!(
            lpl.effective_air_time(&f),
            plain.effective_air_time(&f) + stretch
        );
        let d_plain = plain.transmit(SimTime::ZERO, &f);
        let d_lpl = lpl.transmit(SimTime::ZERO, &f);
        assert_eq!(
            d_lpl.arrive_at,
            d_plain.arrive_at + stretch,
            "receivers see the frame after the stretched preamble"
        );
        let tx_j = lpl.energy().unwrap().meter(NodeId(0)).breakdown();
        // TX energy is dominated by the 100 ms stretch, not the ~6 ms frame.
        assert!(tx_j.state(EnergyState::Tx) > crate::energy::joules(16.0, stretch));
    }

    #[test]
    fn removed_node_neither_hears_nor_is_heard() {
        let mut m = perfect_line(3);
        m.remove_node(NodeId(1));
        let f = Frame::broadcast(NodeId(0), vec![0; 5]);
        assert!(m.transmit(SimTime::ZERO, &f).outcomes.is_empty());
        let f1 = Frame::broadcast(NodeId(1), vec![0; 5]);
        assert!(m
            .transmit(SimTime::from_micros(50_000), &f1)
            .outcomes
            .is_empty());
        // And its carrier no longer makes the channel busy for others.
        assert!(!m.channel_busy(SimTime::from_micros(51_000), NodeId(0)));
    }

    #[test]
    fn mobility_forms_and_severs_links_mid_run() {
        let topo = Topology::new(
            vec![Location::new(0, 0), Location::new(10, 0)],
            Connectivity::Range(3.0),
        );
        let mut m = Medium::new(topo, LossModel::perfect(), 2);
        let f = Frame::broadcast(NodeId(0), vec![0; 5]);
        assert!(m.transmit(SimTime::ZERO, &f).outcomes.is_empty());
        m.move_node(NodeId(1), Location::new(2, 0));
        let t1 = SimTime::from_micros(1_000_000);
        assert_eq!(
            m.transmit(t1, &f).outcomes,
            vec![(NodeId(1), DeliveryOutcome::Delivered)]
        );
        m.move_node(NodeId(1), Location::new(10, 0));
        let t2 = SimTime::from_micros(2_000_000);
        assert!(m.transmit(t2, &f).outcomes.is_empty());
    }

    #[test]
    fn distance_ramp_softens_far_links() {
        use crate::loss::DistanceLoss;

        let topo = Topology::new(
            vec![Location::new(0, 0), Location::new(4, 0)],
            Connectivity::Range(10.0),
        );
        let loss = LossModel::perfect().with_distance(DistanceLoss::new(1.0, 4.0, 1.0));
        let mut m = Medium::new(topo, loss, 5);
        let f = Frame::broadcast(NodeId(0), vec![0; 5]);
        // At distance 4 the ramp is pinned at certain loss.
        assert_eq!(
            m.transmit(SimTime::ZERO, &f).outcomes[0].1,
            DeliveryOutcome::LostChannel
        );
        // Walk the receiver inside `near`: the ramp adds nothing and the
        // perfect base model delivers.
        m.move_node(NodeId(1), Location::new(0, 1));
        let later = SimTime::from_micros(10_000_000);
        assert_eq!(
            m.transmit(later, &f).outcomes[0].1,
            DeliveryOutcome::Delivered
        );
    }

    #[test]
    fn heal_link_restores_delivery() {
        let mut m = perfect_line(2);
        let f = Frame::broadcast(NodeId(0), vec![0; 5]);
        m.drop_link(NodeId(0), NodeId(1));
        assert!(m.transmit(SimTime::ZERO, &f).outcomes.is_empty());
        m.heal_link(NodeId(0), NodeId(1));
        let later = SimTime::from_micros(1_000_000);
        assert_eq!(m.transmit(later, &f).outcomes.len(), 1);
    }

    #[test]
    fn burst_channel_loses_during_bad_state() {
        let topo = Topology::line(2);
        let mut loss = LossModel::perfect();
        loss.bursts = Some(GilbertElliott::new(1.0, 1.0, 1.0));
        let mut m = Medium::new(topo, loss, 21);
        let mut lost = 0u32;
        let n: u32 = 2_000;
        for i in 0..n {
            let f = Frame::broadcast(NodeId(0), vec![0; 5]);
            let t = SimTime::from_micros(u64::from(i) * 1_000_000);
            if m.transmit(t, &f).outcomes[0].1 != DeliveryOutcome::Delivered {
                lost += 1;
            }
        }
        let frac = f64::from(lost) / f64::from(n);
        // Stationary bad probability is 0.5 with certain loss in bad state.
        assert!((0.4..0.6).contains(&frac), "burst loss fraction {frac}");
    }
}
