//! The Maté network: viral capsule flooding over the shared radio substrate.

use std::collections::VecDeque;

use wsn_common::NodeId;
use wsn_net::{ActiveMessage, AmType, CsmaMac};
use wsn_radio::{DeliveryOutcome, Frame, LossModel, Medium, Topology};
use wsn_sim::{EventQueue, Metrics, RngStream, SimDuration, SimTime};

use crate::capsule::{Capsule, CapsuleKind};

/// Active-message type used for capsule broadcasts.
const AM_CAPSULE: AmType = AmType(40);

/// Maté's forwarding schedule: a node that installed a new capsule
/// re-broadcasts it a few times with random spacing, and gossips its
/// installed versions periodically so stragglers catch up.
const REBROADCASTS: u32 = 3;
const GOSSIP_PERIOD: SimDuration = SimDuration::from_micros(4_000_000);

#[derive(Debug, Clone)]
enum Event {
    TxReady {
        node: NodeId,
    },
    FrameArrived {
        node: NodeId,
        frame: Frame,
        outcome: DeliveryOutcome,
    },
    Rebroadcast {
        node: NodeId,
        kind: CapsuleKind,
        version: u16,
        remaining: u32,
    },
    Gossip {
        node: NodeId,
    },
}

#[derive(Debug)]
struct MateNode {
    id: NodeId,
    capsules: [Option<Capsule>; 4],
    tx_queue: VecDeque<Frame>,
    tx_scheduled: bool,
}

impl MateNode {
    fn capsule(&self, kind: CapsuleKind) -> Option<&Capsule> {
        self.capsules[kind as usize].as_ref()
    }
}

/// A network of Maté motes sharing the Agilla reproduction's radio model.
///
/// # Examples
///
/// ```
/// use mate_baseline::{Capsule, CapsuleKind, MateNetwork};
/// use wsn_radio::{LossModel, Topology};
/// use wsn_sim::SimDuration;
///
/// let mut net = MateNetwork::new(Topology::grid(3, 3), LossModel::perfect(), 1);
/// let capsule = Capsule::new(CapsuleKind::Clock, 1, vec![0x01, 0x00]).unwrap();
/// net.install_at(wsn_common::NodeId(0), capsule);
/// net.run_for(SimDuration::from_secs(30));
/// assert_eq!(net.nodes_running(CapsuleKind::Clock, 1), 9);
/// ```
#[derive(Debug)]
pub struct MateNetwork {
    queue: EventQueue<Event>,
    medium: Medium,
    nodes: Vec<MateNode>,
    mac: CsmaMac,
    rng: RngStream,
    metrics: Metrics,
    clock: SimTime,
}

impl MateNetwork {
    /// Builds a Maté network over `topology`.
    pub fn new(topology: Topology, loss: LossModel, seed: u64) -> Self {
        let medium = Medium::new(topology, loss, seed);
        let nodes = medium
            .topology()
            .nodes()
            .map(|id| MateNode {
                id,
                capsules: Default::default(),
                tx_queue: VecDeque::new(),
                tx_scheduled: false,
            })
            .collect();
        let mut net = MateNetwork {
            queue: EventQueue::new(),
            medium,
            nodes,
            mac: CsmaMac::new(),
            rng: RngStream::derive(seed, "mate"),
            metrics: Metrics::new(),
            clock: SimTime::ZERO,
        };
        // Periodic version gossip, staggered.
        for id in net.medium.topology().nodes() {
            let jitter = net.rng.range_u64(0, GOSSIP_PERIOD.as_micros());
            net.queue.schedule(
                SimTime::ZERO + SimDuration::from_micros(jitter),
                Event::Gossip { node: id },
            );
        }
        net
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.max(self.queue.now())
    }

    /// Installs (injects) a capsule at `node` — the base station's act of
    /// reprogramming the network. Flooding does the rest.
    pub fn install_at(&mut self, node: NodeId, capsule: Capsule) {
        let idx = node.index();
        let kind = capsule.kind;
        let version = capsule.version;
        self.nodes[idx].capsules[kind as usize] = Some(capsule);
        self.queue.schedule(
            self.queue.now(),
            Event::Rebroadcast {
                node,
                kind,
                version,
                remaining: REBROADCASTS,
            },
        );
    }

    /// Runs until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(next) = self.queue.peek_time() {
            if next > deadline {
                break;
            }
            let (at, ev) = self.queue.pop().expect("peeked");
            self.dispatch(at, ev);
        }
        self.clock = self.clock.max(deadline);
    }

    /// Runs for `d` from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Runs until every node has `kind` at `version` (or `max` elapses);
    /// returns the completion time if reached.
    pub fn run_until_programmed(
        &mut self,
        kind: CapsuleKind,
        version: u16,
        max: SimDuration,
    ) -> Option<SimTime> {
        let deadline = self.now() + max;
        while self.nodes_running(kind, version) < self.nodes.len() {
            let next = self.queue.peek_time()?;
            if next > deadline {
                self.clock = deadline;
                return None;
            }
            let (at, ev) = self.queue.pop().expect("peeked");
            self.dispatch(at, ev);
        }
        Some(self.now())
    }

    /// How many nodes run `kind` at exactly `version`.
    pub fn nodes_running(&self, kind: CapsuleKind, version: u16) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.capsule(kind).is_some_and(|c| c.version == version))
            .count()
    }

    /// Total nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network is empty (never: topology enforces ≥1).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Frames put on the air so far.
    pub fn frames_sent(&self) -> u64 {
        self.medium.frames_sent()
    }

    /// Metrics counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn dispatch(&mut self, at: SimTime, ev: Event) {
        match ev {
            Event::TxReady { node } => self.handle_tx_ready(node.index(), at),
            Event::FrameArrived {
                node,
                frame,
                outcome,
            } => self.handle_frame(node.index(), frame, outcome, at),
            Event::Rebroadcast {
                node,
                kind,
                version,
                remaining,
            } => self.handle_rebroadcast(node.index(), kind, version, remaining, at),
            Event::Gossip { node } => self.handle_gossip(node.index(), at),
        }
    }

    fn enqueue_frame(&mut self, idx: usize, frame: Frame) {
        self.nodes[idx].tx_queue.push_back(frame);
        if !self.nodes[idx].tx_scheduled {
            self.nodes[idx].tx_scheduled = true;
            let delay = self.mac.tx_processing() + self.mac.initial_backoff(&mut self.rng);
            let node = self.nodes[idx].id;
            self.queue
                .schedule(self.queue.now() + delay, Event::TxReady { node });
        }
    }

    fn handle_tx_ready(&mut self, idx: usize, now: SimTime) {
        let node_id = self.nodes[idx].id;
        if self.nodes[idx].tx_queue.is_empty() {
            self.nodes[idx].tx_scheduled = false;
            return;
        }
        if self.medium.channel_busy(now, node_id) {
            let delay = self.mac.congestion_backoff(&mut self.rng, 1);
            self.queue
                .schedule(now + delay, Event::TxReady { node: node_id });
            return;
        }
        let frame = self.nodes[idx].tx_queue.pop_front().expect("non-empty");
        self.metrics.incr("mate.frames_sent");
        let air = frame.air_time();
        let batch = self.medium.transmit(now, &frame);
        for (to, outcome) in batch.outcomes {
            self.queue.schedule(
                batch.arrive_at + self.mac.rx_processing(),
                Event::FrameArrived {
                    node: to,
                    frame: frame.clone(),
                    outcome,
                },
            );
        }
        if self.nodes[idx].tx_queue.is_empty() {
            self.nodes[idx].tx_scheduled = false;
        } else {
            let delay = air + self.mac.initial_backoff(&mut self.rng);
            self.queue
                .schedule(now + delay, Event::TxReady { node: node_id });
        }
    }

    fn handle_frame(&mut self, idx: usize, frame: Frame, outcome: DeliveryOutcome, now: SimTime) {
        if outcome != DeliveryOutcome::Delivered {
            return;
        }
        let Some(msg) = ActiveMessage::decode(&frame.payload) else {
            return;
        };
        if msg.am_type != AM_CAPSULE {
            return;
        }
        let Some(capsule) = Capsule::decode(&msg.payload) else {
            return;
        };
        let slot = capsule.kind as usize;
        let newer = self.nodes[idx].capsules[slot]
            .as_ref()
            .is_none_or(|c| c.version < capsule.version);
        if newer {
            let node_id = self.nodes[idx].id;
            let kind = capsule.kind;
            let version = capsule.version;
            self.nodes[idx].capsules[slot] = Some(capsule);
            self.metrics.incr("mate.installs");
            // Viral forwarding with a short random delay.
            let delay = self.rng.range_u64(10_000, 120_000);
            self.queue.schedule(
                now + SimDuration::from_micros(delay),
                Event::Rebroadcast {
                    node: node_id,
                    kind,
                    version,
                    remaining: REBROADCASTS,
                },
            );
        }
    }

    fn handle_rebroadcast(
        &mut self,
        idx: usize,
        kind: CapsuleKind,
        version: u16,
        remaining: u32,
        now: SimTime,
    ) {
        let node_id = self.nodes[idx].id;
        // Only rebroadcast while the capsule is still current.
        let Some(c) = self.nodes[idx].capsule(kind) else {
            return;
        };
        if c.version != version {
            return;
        }
        let payload = c.encode();
        let msg = ActiveMessage::new(AM_CAPSULE, payload).expect("capsule fits a message");
        self.enqueue_frame(idx, Frame::broadcast(node_id, msg.encode()));
        if remaining > 1 {
            let delay = self.rng.range_u64(150_000, 600_000);
            self.queue.schedule(
                now + SimDuration::from_micros(delay),
                Event::Rebroadcast {
                    node: node_id,
                    kind,
                    version,
                    remaining: remaining - 1,
                },
            );
        }
    }

    fn handle_gossip(&mut self, idx: usize, now: SimTime) {
        let node_id = self.nodes[idx].id;
        // Gossip the freshest installed capsule (keeps flooding alive past
        // lossy patches without flooding forever).
        if let Some(c) = self.nodes[idx]
            .capsules
            .iter()
            .flatten()
            .max_by_key(|c| c.version)
        {
            let msg = ActiveMessage::new(AM_CAPSULE, c.encode()).expect("capsule fits");
            self.enqueue_frame(idx, Frame::broadcast(node_id, msg.encode()));
        }
        let jitter = self.rng.range_u64(0, 1_000_000);
        self.queue.schedule(
            now + GOSSIP_PERIOD + SimDuration::from_micros(jitter),
            Event::Gossip { node: node_id },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capsule(version: u16) -> Capsule {
        Capsule::new(CapsuleKind::Clock, version, vec![1, 2, 3, 4]).unwrap()
    }

    #[test]
    fn flood_reaches_every_node_on_reliable_grid() {
        let mut net = MateNetwork::new(Topology::grid(5, 5), LossModel::perfect(), 2);
        net.install_at(NodeId(0), capsule(1));
        let done = net.run_until_programmed(CapsuleKind::Clock, 1, SimDuration::from_secs(60));
        assert!(done.is_some(), "flood completes");
        assert_eq!(net.nodes_running(CapsuleKind::Clock, 1), 25);
        assert!(
            net.frames_sent() >= 25,
            "every node rebroadcast at least once"
        );
    }

    #[test]
    fn flood_survives_loss() {
        let mut net = MateNetwork::new(Topology::grid(5, 5), LossModel::mica2_testbed(), 3);
        net.install_at(NodeId(0), capsule(1));
        let done = net.run_until_programmed(CapsuleKind::Clock, 1, SimDuration::from_secs(120));
        assert!(done.is_some(), "gossip repairs losses");
    }

    #[test]
    fn newer_version_replaces_older() {
        let mut net = MateNetwork::new(Topology::grid(3, 3), LossModel::perfect(), 4);
        net.install_at(NodeId(0), capsule(1));
        net.run_until_programmed(CapsuleKind::Clock, 1, SimDuration::from_secs(60))
            .unwrap();
        net.install_at(NodeId(0), capsule(2));
        let done = net.run_until_programmed(CapsuleKind::Clock, 2, SimDuration::from_secs(60));
        assert!(done.is_some());
        assert_eq!(
            net.nodes_running(CapsuleKind::Clock, 1),
            0,
            "v1 fully replaced"
        );
    }

    #[test]
    fn older_version_cannot_displace_newer() {
        let mut net = MateNetwork::new(Topology::grid(2, 2), LossModel::perfect(), 5);
        net.install_at(NodeId(0), capsule(5));
        net.run_until_programmed(CapsuleKind::Clock, 5, SimDuration::from_secs(60))
            .unwrap();
        // Re-inject an older version elsewhere: receivers ignore its
        // broadcasts, and the flood re-upgrades the downgraded node itself.
        net.install_at(NodeId(3), capsule(3));
        net.run_for(SimDuration::from_secs(30));
        assert_eq!(net.nodes_running(CapsuleKind::Clock, 5), 4);
        assert_eq!(net.nodes_running(CapsuleKind::Clock, 3), 0);
    }

    #[test]
    fn capsule_kinds_are_independent() {
        let mut net = MateNetwork::new(Topology::grid(2, 2), LossModel::perfect(), 6);
        net.install_at(NodeId(0), capsule(1));
        let recv = Capsule::new(CapsuleKind::Receive, 9, vec![7]).unwrap();
        net.install_at(NodeId(0), recv);
        net.run_for(SimDuration::from_secs(30));
        assert_eq!(net.nodes_running(CapsuleKind::Clock, 1), 4);
        assert_eq!(net.nodes_running(CapsuleKind::Receive, 9), 4);
    }

    #[test]
    fn determinism() {
        let run = |seed| {
            let mut net = MateNetwork::new(Topology::grid(4, 4), LossModel::mica2_testbed(), seed);
            net.install_at(NodeId(0), capsule(1));
            net.run_for(SimDuration::from_secs(30));
            (net.frames_sent(), net.nodes_running(CapsuleKind::Clock, 1))
        };
        assert_eq!(run(9), run(9));
    }
}
