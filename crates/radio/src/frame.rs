//! On-air frames.

use std::fmt;

use wsn_common::NodeId;
use wsn_sim::SimDuration;

use crate::mica2;

/// A radio frame as it appears on the air: source, link destination, and the
/// serialized active-message payload.
///
/// `link_dst` is the *link-layer* destination (a specific neighbor or
/// broadcast); routing-layer addressing lives inside the payload. The radio
/// is a broadcast medium, so every in-range node receives the frame and the
/// MAC filters on `link_dst` — exactly how TinyOS's `GenericComm` behaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Transmitting node.
    pub src: NodeId,
    /// Link-layer destination; `None` means link broadcast.
    pub link_dst: Option<NodeId>,
    /// Serialized payload (at most [`mica2::MAX_PAYLOAD`] bytes for TinyOS
    /// compatibility; larger payloads model jumbo experimental frames and are
    /// permitted but cost proportionally more air time and loss).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Creates a unicast frame.
    pub fn unicast(src: NodeId, dst: NodeId, payload: Vec<u8>) -> Self {
        Frame {
            src,
            link_dst: Some(dst),
            payload,
        }
    }

    /// Creates a link-broadcast frame.
    pub fn broadcast(src: NodeId, payload: Vec<u8>) -> Self {
        Frame {
            src,
            link_dst: None,
            payload,
        }
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Time this frame occupies the medium.
    pub fn air_time(&self) -> SimDuration {
        SimDuration::from_micros(mica2::air_time_us(self.payload.len()))
    }

    /// Total bits on the air, the exposure used by BER loss models.
    pub fn on_air_bits(&self) -> u64 {
        mica2::on_air_bits(self.payload.len())
    }

    /// Whether `node` should accept this frame at the link layer.
    pub fn accepts(&self, node: NodeId) -> bool {
        match self.link_dst {
            None => true,
            Some(d) => d == node,
        }
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.link_dst {
            Some(d) => write!(f, "{}->{} [{}B]", self.src, d, self.payload.len()),
            None => write!(f, "{}->* [{}B]", self.src, self.payload.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unicast_accepts_only_destination() {
        let f = Frame::unicast(NodeId(1), NodeId(2), vec![0; 4]);
        assert!(f.accepts(NodeId(2)));
        assert!(!f.accepts(NodeId(3)));
    }

    #[test]
    fn broadcast_accepts_everyone() {
        let f = Frame::broadcast(NodeId(1), vec![]);
        assert!(f.accepts(NodeId(2)));
        assert!(f.accepts(NodeId(99)));
    }

    #[test]
    fn air_time_tracks_payload() {
        let small = Frame::broadcast(NodeId(0), vec![0; 4]);
        let large = Frame::broadcast(NodeId(0), vec![0; 27]);
        assert!(large.air_time() > small.air_time());
        assert!(large.on_air_bits() > small.on_air_bits());
    }

    #[test]
    fn display_formats() {
        let f = Frame::unicast(NodeId(1), NodeId(2), vec![0; 3]);
        assert_eq!(f.to_string(), "n1->n2 [3B]");
        let b = Frame::broadcast(NodeId(1), vec![0; 3]);
        assert_eq!(b.to_string(), "n1->* [3B]");
    }
}
