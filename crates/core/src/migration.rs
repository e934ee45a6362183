//! Agent packaging for migration: image serialization, fragmentation, and
//! reassembly.
//!
//! "When an agent migrates, Agilla divides it into numerous types of
//! messages ... At a minimum, a migration requires two messages: one state
//! and one code. Many agents require more since they have data in their
//! stack and heap, and have registered reactions." (Section 3.2, Fig. 5)
//!
//! The hop-by-hop send/ack/retransmit state machines are driven by the
//! network event loop; this module owns the pure data transformations so
//! they can be tested exhaustively in isolation.

use std::sync::Arc;

use agilla_tuplespace::{Reaction, Template, TupleSpaceError};
use agilla_vm::{AgentState, MigrateKind, VmError};
use wsn_common::{AgentId, Location};

use crate::wire::{MigData, MigHeader, MigSection, CODE_FRAG_BYTES, STATE_FRAG_BYTES};

/// Encodes one reaction for transfer: owner id, handler pc, template.
pub fn encode_reaction(r: &Reaction) -> Vec<u8> {
    let mut out = Vec::with_capacity(r.encoded_len());
    out.extend_from_slice(&r.owner.raw().to_le_bytes());
    out.extend_from_slice(&r.pc.to_le_bytes());
    out.extend_from_slice(&r.template.encode());
    out
}

/// Decodes a reaction fragment.
///
/// # Errors
///
/// [`TupleSpaceError::Decode`] on malformed bytes.
pub fn decode_reaction(b: &[u8]) -> Result<Reaction, TupleSpaceError> {
    if b.len() < 5 {
        return Err(TupleSpaceError::Decode("truncated reaction"));
    }
    let owner = AgentId(u16::from_le_bytes([b[0], b[1]]));
    let pc = u16::from_le_bytes([b[2], b[3]]);
    let (template, _) = Template::decode(&b[4..])?;
    Ok(Reaction::new(owner, template, pc))
}

/// A fully packaged migrating agent, ready to fragment into messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationImage {
    /// Which migration instruction produced this image.
    pub kind: MigrateKind,
    /// The agent's final destination.
    pub final_dest: Location,
    /// The travelling agent's id.
    pub agent_id: AgentId,
    /// Serialized registers + stack + heap.
    pub state: Vec<u8>,
    /// Bytecode, shared with the agent it was packaged from.
    pub code: Arc<[u8]>,
    /// Reactions travelling with the agent (strong migrations only:
    /// weak arrivals restart from scratch and re-register their own).
    pub reactions: Vec<Reaction>,
}

impl MigrationImage {
    /// Packages `agent` for migration.
    ///
    /// For weak operations only the code travels: the state image is that of
    /// a freshly reset agent ("only the code is transferred. The program
    /// counter, heap, and stack are reset", Section 2.2) and reactions are
    /// dropped.
    pub fn package(
        agent: &AgentState,
        kind: MigrateKind,
        final_dest: Location,
        reactions: Vec<Reaction>,
    ) -> MigrationImage {
        let (state, reactions) = if kind.is_strong() {
            (agent.encode_state(), reactions)
        } else {
            let mut fresh = agent.clone();
            fresh.reset_weak();
            (fresh.encode_state(), Vec::new())
        };
        MigrationImage {
            kind,
            final_dest,
            agent_id: agent.id(),
            state,
            code: agent.shared_code(),
            reactions,
        }
    }

    /// The session header message for this image.
    pub fn header(&self, session: u16) -> MigHeader {
        MigHeader {
            session,
            kind: self.kind,
            final_dest: self.final_dest,
            agent_id: self.agent_id,
            state_len: self.state.len() as u16,
            code_len: self.code.len() as u16,
            rxn_frags: self.reactions.len() as u8,
        }
    }

    /// All data fragments, in transfer order (state, code, reactions).
    pub fn fragments(&self, session: u16) -> Vec<MigData> {
        self.fragments_sized(session, STATE_FRAG_BYTES, CODE_FRAG_BYTES)
    }

    /// Data fragments with explicit chunk sizes (the end-to-end ablation must
    /// shrink fragments to make room for its geographic envelope).
    pub fn fragments_sized(
        &self,
        session: u16,
        state_chunk: usize,
        code_chunk: usize,
    ) -> Vec<MigData> {
        let mut out = Vec::new();
        for (seq, chunk) in self.state.chunks(state_chunk).enumerate() {
            out.push(MigData {
                session,
                section: MigSection::State,
                seq: seq as u8,
                bytes: chunk.to_vec(),
            });
        }
        for (seq, chunk) in self.code.chunks(code_chunk).enumerate() {
            out.push(MigData {
                session,
                section: MigSection::Code,
                seq: seq as u8,
                bytes: chunk.to_vec(),
            });
        }
        for (seq, r) in self.reactions.iter().enumerate() {
            out.push(MigData {
                session,
                section: MigSection::Reaction,
                seq: seq as u8,
                bytes: encode_reaction(r),
            });
        }
        out
    }

    /// Total messages for one hop: header plus data fragments. The minimum
    /// is 2 — "one state and one code" — plus the session header our
    /// protocol adds.
    pub fn messages_per_hop(&self) -> usize {
        1 + self.fragments(0).len()
    }
}

/// Reassembles an arrived image back into an agent and its reactions.
///
/// # Errors
///
/// Any decode failure in the state image or reaction fragments.
pub fn reassemble(
    header: &MigHeader,
    state: &[u8],
    code: Vec<u8>,
    reaction_frags: &[Vec<u8>],
) -> Result<(AgentState, Vec<Reaction>), VmError> {
    let mut agent = AgentState::decode_state(state, code)?;
    // Arrivals observe condition 1: "If the operation is successful ... the
    // condition [is] set" — failures resume at the *sender* with 0.
    agent.set_condition(1);
    if !header.kind.is_strong() {
        let id = agent.id();
        agent.reset_weak();
        agent.set_id(id);
        agent.set_condition(1);
    }
    let mut reactions = Vec::with_capacity(reaction_frags.len());
    for frag in reaction_frags {
        reactions.push(decode_reaction(frag).map_err(VmError::from)?);
    }
    Ok((agent, reactions))
}

/// The per-fragment reassembly buffer a receiver session maintains.
#[derive(Debug)]
pub struct ReassemblyBuffer {
    header: MigHeader,
    state_frags: Vec<Option<Vec<u8>>>,
    code_frags: Vec<Option<Vec<u8>>>,
    rxn_frags: Vec<Option<Vec<u8>>>,
}

impl ReassemblyBuffer {
    /// Creates a buffer sized by the session header (default chunk sizes).
    pub fn new(header: MigHeader) -> Self {
        Self::with_chunks(header, STATE_FRAG_BYTES, CODE_FRAG_BYTES)
    }

    /// Creates a buffer for explicit chunk sizes (end-to-end ablation).
    pub fn with_chunks(header: MigHeader, state_chunk: usize, code_chunk: usize) -> Self {
        ReassemblyBuffer {
            state_frags: vec![None; (header.state_len as usize).div_ceil(state_chunk)],
            code_frags: vec![None; (header.code_len as usize).div_ceil(code_chunk)],
            rxn_frags: vec![None; header.rxn_frags as usize],
            header,
        }
    }

    /// The session header.
    pub fn header(&self) -> &MigHeader {
        &self.header
    }

    /// Stores a fragment. Duplicate fragments are idempotent. Returns
    /// `false` for out-of-range fragments (corrupt or mismatched session).
    pub fn accept(&mut self, data: &MigData) -> bool {
        let slot = match data.section {
            MigSection::State => self.state_frags.get_mut(data.seq as usize),
            MigSection::Code => self.code_frags.get_mut(data.seq as usize),
            MigSection::Reaction => self.rxn_frags.get_mut(data.seq as usize),
        };
        match slot {
            Some(s) => {
                *s = Some(data.bytes.clone());
                true
            }
            None => false,
        }
    }

    /// Whether every fragment has arrived.
    pub fn is_complete(&self) -> bool {
        self.state_frags.iter().all(Option::is_some)
            && self.code_frags.iter().all(Option::is_some)
            && self.rxn_frags.iter().all(Option::is_some)
    }

    /// Reassembles the agent once complete.
    ///
    /// # Errors
    ///
    /// Decode errors; also if called before [`ReassemblyBuffer::is_complete`].
    pub fn finish(&self) -> Result<(AgentState, Vec<Reaction>), VmError> {
        if !self.is_complete() {
            return Err(VmError::Resource("incomplete migration image"));
        }
        let state: Vec<u8> = self
            .state_frags
            .iter()
            .flatten()
            .flatten()
            .copied()
            .collect();
        if state.len() != self.header.state_len as usize {
            return Err(VmError::Tuple(TupleSpaceError::Decode(
                "state length mismatch",
            )));
        }
        let code: Vec<u8> = self
            .code_frags
            .iter()
            .flatten()
            .flatten()
            .copied()
            .collect();
        if code.len() != self.header.code_len as usize {
            return Err(VmError::Tuple(TupleSpaceError::Decode(
                "code length mismatch",
            )));
        }
        let rxns: Vec<Vec<u8>> = self.rxn_frags.iter().flatten().cloned().collect();
        reassemble(&self.header, &state, code, &rxns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agilla_tuplespace::{Field, TemplateField};
    use agilla_vm::asm::assemble;

    fn sample_agent() -> AgentState {
        let code = assemble("pushc 1\nsetvar 0\npushloc 3 3\nsmove\nhalt")
            .unwrap()
            .into_code();
        let mut a = AgentState::with_code(AgentId(9), code).unwrap();
        a.push_value(42).unwrap();
        a.setvar(2).unwrap();
        a.push_field(Field::location(Location::new(1, 1))).unwrap();
        a.set_pc(7);
        a
    }

    fn sample_reactions() -> Vec<Reaction> {
        vec![Reaction::new(
            AgentId(9),
            Template::new(vec![
                TemplateField::exact(Field::str("fir")),
                TemplateField::any_location(),
            ]),
            12,
        )]
    }

    #[test]
    fn reaction_codec_roundtrip() {
        for r in sample_reactions() {
            let decoded = decode_reaction(&encode_reaction(&r)).unwrap();
            assert_eq!(decoded, r);
        }
        assert!(decode_reaction(&[1, 2]).is_err());
    }

    #[test]
    fn strong_image_carries_everything() {
        let a = sample_agent();
        let img = MigrationImage::package(
            &a,
            MigrateKind::StrongMove,
            Location::new(3, 3),
            sample_reactions(),
        );
        assert_eq!(img.state, a.encode_state());
        assert_eq!(&*img.code, a.code());
        assert_eq!(img.reactions.len(), 1);
    }

    #[test]
    fn weak_image_resets_state_and_drops_reactions() {
        let a = sample_agent();
        let img = MigrationImage::package(
            &a,
            MigrateKind::WeakClone,
            Location::new(3, 3),
            sample_reactions(),
        );
        assert!(img.reactions.is_empty());
        // The state image decodes to a reset agent.
        let fresh = AgentState::decode_state(&img.state, img.code.clone()).unwrap();
        assert_eq!(fresh.pc(), 0);
        assert_eq!(fresh.stack_depth(), 0);
        assert_eq!(fresh.id(), AgentId(9));
    }

    #[test]
    fn minimum_migration_is_header_plus_state_plus_code() {
        // A small agent: one state fragment, one code fragment, no reactions —
        // the paper's two-message minimum plus the session header.
        let code = assemble("pushloc 5 1\nsmove\nhalt").unwrap().into_code();
        let a = AgentState::with_code(AgentId(1), code).unwrap();
        let img = MigrationImage::package(&a, MigrateKind::StrongMove, Location::new(5, 1), vec![]);
        assert_eq!(img.messages_per_hop(), 3);
    }

    #[test]
    fn fragmentation_roundtrip_via_reassembly_buffer() {
        let a = sample_agent();
        let rxns = sample_reactions();
        let img = MigrationImage::package(
            &a,
            MigrateKind::StrongMove,
            Location::new(3, 3),
            rxns.clone(),
        );
        let header = img.header(5);
        let mut buf = ReassemblyBuffer::new(header);
        assert!(!buf.is_complete());
        for frag in img.fragments(5) {
            assert!(buf.accept(&frag));
        }
        assert!(buf.is_complete());
        let (agent, reactions) = buf.finish().unwrap();
        assert_eq!(agent.id(), a.id());
        assert_eq!(agent.pc(), a.pc());
        assert_eq!(agent.code(), a.code());
        assert_eq!(agent.stack(), a.stack());
        assert_eq!(agent.condition(), 1, "arrivals observe condition 1");
        assert_eq!(reactions, rxns);
    }

    #[test]
    fn out_of_order_and_duplicate_fragments() {
        let a = sample_agent();
        let img = MigrationImage::package(&a, MigrateKind::StrongMove, Location::new(3, 3), vec![]);
        let mut frags = img.fragments(1);
        frags.reverse();
        let mut buf = ReassemblyBuffer::new(img.header(1));
        for frag in &frags {
            assert!(buf.accept(frag));
            assert!(buf.accept(frag), "duplicates are idempotent");
        }
        assert!(buf.is_complete());
        assert!(buf.finish().is_ok());
    }

    #[test]
    fn rejects_out_of_range_fragments() {
        let a = sample_agent();
        let img = MigrationImage::package(&a, MigrateKind::StrongMove, Location::new(3, 3), vec![]);
        let mut buf = ReassemblyBuffer::new(img.header(1));
        let bogus = MigData {
            session: 1,
            section: MigSection::Reaction,
            seq: 9,
            bytes: vec![],
        };
        assert!(!buf.accept(&bogus));
    }

    #[test]
    fn finish_before_complete_errors() {
        let a = sample_agent();
        let img = MigrationImage::package(&a, MigrateKind::StrongMove, Location::new(3, 3), vec![]);
        let buf = ReassemblyBuffer::new(img.header(1));
        assert!(buf.finish().is_err());
    }

    #[test]
    fn weak_arrival_restarts_from_zero() {
        let a = sample_agent();
        let img = MigrationImage::package(&a, MigrateKind::WeakMove, Location::new(3, 3), vec![]);
        let mut buf = ReassemblyBuffer::new(img.header(2));
        for frag in img.fragments(2) {
            buf.accept(&frag);
        }
        let (agent, _) = buf.finish().unwrap();
        assert_eq!(agent.pc(), 0);
        assert_eq!(agent.stack_depth(), 0);
        assert_eq!(agent.condition(), 1);
    }

    #[test]
    fn code_fragments_are_block_sized() {
        // 50 bytes of code => 3 fragments of 22/22/6.
        let code = vec![0u8; 50];
        let a = AgentState::with_code(AgentId(1), code).unwrap();
        let img = MigrationImage::package(&a, MigrateKind::StrongMove, Location::new(1, 1), vec![]);
        let frags: Vec<_> = img
            .fragments(0)
            .into_iter()
            .filter(|f| f.section == MigSection::Code)
            .collect();
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].bytes.len(), 22);
        assert_eq!(frags[2].bytes.len(), 6);
    }
}
