//! The mobile-agent architecture of Fig. 6.
//!
//! "It consists of a stack, heap, and various registers. ... The heap is a
//! random-access storage area that allows an agent to store up to 12
//! variables. ... The agent also contains three 16-bit registers: one
//! containing the agent's ID, another with the program counter (PC), and the
//! last with the condition code." (Section 3.3)

use std::fmt;
use std::sync::Arc;

use agilla_tuplespace::{Field, Template, TemplateField, Tuple, TupleSpaceError};
use wsn_common::{AgentId, Location};

use crate::error::VmError;
use crate::StackValue;

/// Operand-stack depth (Fig. 6 shows stack indices 0–15).
pub const STACK_DEPTH: usize = 16;

/// Heap variables per agent ("up to 12 variables", Section 3.3).
pub const HEAP_SLOTS: usize = 12;

/// Default instruction-memory budget: "By default, the instruction manager
/// is allocated 440 bytes (20 blocks) ... an agent can have up to 440
/// instructions" (Section 3.2).
pub const DEFAULT_CODE_BUDGET: usize = 440;

/// What a stack slot above the live depth holds until it is pushed to.
const STALE: StackValue = TemplateField::Exact(Field::Value(0));

/// The complete execution state of one mobile agent.
///
/// # Examples
///
/// ```
/// use agilla_vm::AgentState;
/// use wsn_common::AgentId;
///
/// let code = vec![0x00]; // halt
/// let agent = AgentState::with_code(AgentId(3), code).unwrap();
/// assert_eq!(agent.pc(), 0);
/// assert_eq!(agent.condition(), 0);
/// ```
#[derive(Clone)]
pub struct AgentState {
    id: AgentId,
    pc: u16,
    condition: i16,
    /// Live depth of `stack`; the slots at and above it are stale.
    depth: u8,
    stack: [StackValue; STACK_DEPTH],
    heap: [Option<StackValue>; HEAP_SLOTS],
    /// Never changed after construction, so a clone shares it.
    code: Arc<[u8]>,
    /// Set by the engine when the code passed the static verifier. Not part
    /// of the migration wire image or of equality: it is a local promise
    /// about `code`, re-established wherever the code is re-admitted.
    verified: bool,
}

impl PartialEq for AgentState {
    fn eq(&self, other: &Self) -> bool {
        // `verified` is deliberately excluded: two agents with identical
        // execution state are equal regardless of which host vetted them
        // (the state codec roundtrip relies on this).
        self.id == other.id
            && self.pc == other.pc
            && self.condition == other.condition
            && self.stack() == other.stack()
            && self.heap == other.heap
            && self.code == other.code
    }
}

impl Eq for AgentState {}

impl fmt::Debug for AgentState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AgentState")
            .field("id", &self.id)
            .field("pc", &self.pc)
            .field("condition", &self.condition)
            .field("stack", &self.stack())
            .field("heap", &self.heap)
            .field("code", &self.code)
            .field("verified", &self.verified)
            .finish()
    }
}

impl AgentState {
    /// Creates an agent with the given code, all registers zeroed.
    ///
    /// # Errors
    ///
    /// [`VmError::CodeTooLarge`] if the code exceeds
    /// [`DEFAULT_CODE_BUDGET`] bytes.
    pub fn with_code(id: AgentId, code: Vec<u8>) -> Result<AgentState, VmError> {
        Self::with_code_budget(id, code, DEFAULT_CODE_BUDGET)
    }

    /// Creates an agent with an explicit instruction-memory budget.
    ///
    /// # Errors
    ///
    /// [`VmError::CodeTooLarge`] if the code exceeds `budget` bytes.
    pub fn with_code_budget(
        id: AgentId,
        code: Vec<u8>,
        budget: usize,
    ) -> Result<AgentState, VmError> {
        if code.len() > budget {
            return Err(VmError::CodeTooLarge {
                size: code.len(),
                max: budget,
            });
        }
        Ok(AgentState {
            id,
            pc: 0,
            condition: 0,
            depth: 0,
            stack: [STALE; STACK_DEPTH],
            heap: Default::default(),
            code: code.into(),
            verified: false,
        })
    }

    /// Whether this agent's code was vetted by the static verifier (set via
    /// [`mark_verified`](Self::mark_verified) by whoever admitted it).
    pub fn verified(&self) -> bool {
        self.verified
    }

    /// Records that the static verifier accepted this agent's code. The
    /// interpreter uses this to arm debug assertions that check the runtime
    /// against the verifier's guarantees (e.g. jump-target alignment).
    pub fn mark_verified(&mut self) {
        self.verified = true;
    }

    /// The agent's id register.
    pub fn id(&self) -> AgentId {
        self.id
    }

    /// Reassigns the id (clones receive fresh ids on arrival).
    pub fn set_id(&mut self, id: AgentId) {
        self.id = id;
    }

    /// The program counter.
    pub fn pc(&self) -> u16 {
        self.pc
    }

    /// Sets the program counter (reaction dispatch, jumps).
    pub fn set_pc(&mut self, pc: u16) {
        self.pc = pc;
    }

    /// The condition-code register.
    pub fn condition(&self) -> i16 {
        self.condition
    }

    /// Sets the condition code (migration outcomes, comparisons).
    pub fn set_condition(&mut self, c: i16) {
        self.condition = c;
    }

    /// The agent's bytecode.
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// Current operand-stack contents, bottom first.
    pub fn stack(&self) -> &[StackValue] {
        &self.stack[..self.stack_depth()]
    }

    /// Current stack depth.
    pub fn stack_depth(&self) -> usize {
        usize::from(self.depth)
    }

    /// Heap slot `i`, if written.
    pub fn heap(&self, i: usize) -> Option<&StackValue> {
        self.heap.get(i).and_then(|s| s.as_ref())
    }

    /// Resets pc, condition, stack, and heap — the arrival semantics of weak
    /// migration ("the program counter, heap, and stack are reset and the
    /// agent resumes running from the beginning", Section 2.2).
    pub fn reset_weak(&mut self) {
        self.pc = 0;
        self.condition = 0;
        self.depth = 0;
        self.heap = Default::default();
    }

    // --- stack primitives -------------------------------------------------

    /// Pushes a slot.
    ///
    /// # Errors
    ///
    /// [`VmError::StackOverflow`] beyond [`STACK_DEPTH`].
    pub fn push(&mut self, v: StackValue) -> Result<(), VmError> {
        let depth = self.stack_depth();
        let slot = self.stack.get_mut(depth).ok_or(VmError::StackOverflow)?;
        *slot = v;
        self.depth += 1;
        Ok(())
    }

    /// Pushes a concrete field.
    ///
    /// # Errors
    ///
    /// [`VmError::StackOverflow`] beyond [`STACK_DEPTH`].
    pub fn push_field(&mut self, f: Field) -> Result<(), VmError> {
        self.push(TemplateField::Exact(f))
    }

    /// Pushes a 16-bit value.
    ///
    /// # Errors
    ///
    /// [`VmError::StackOverflow`] beyond [`STACK_DEPTH`].
    pub fn push_value(&mut self, v: i16) -> Result<(), VmError> {
        self.push_field(Field::Value(v))
    }

    /// Pops a slot.
    ///
    /// # Errors
    ///
    /// [`VmError::StackUnderflow`] on an empty stack.
    pub fn pop(&mut self, during: &'static str) -> Result<StackValue, VmError> {
        self.depth = self
            .depth
            .checked_sub(1)
            .ok_or(VmError::StackUnderflow { during })?;
        Ok(self.stack[self.stack_depth()])
    }

    /// Pops a 16-bit value.
    ///
    /// # Errors
    ///
    /// Underflow, or [`VmError::TypeMismatch`] if the top is not a value.
    pub fn pop_value(&mut self, during: &'static str) -> Result<i16, VmError> {
        match self.pop(during)? {
            TemplateField::Exact(Field::Value(v)) => Ok(v),
            _ => Err(VmError::TypeMismatch {
                during,
                expected: "value",
            }),
        }
    }

    /// Pops a location.
    ///
    /// # Errors
    ///
    /// Underflow, or [`VmError::TypeMismatch`] if the top is not a location.
    pub fn pop_location(&mut self, during: &'static str) -> Result<Location, VmError> {
        match self.pop(during)? {
            TemplateField::Exact(Field::Location(l)) => Ok(l),
            _ => Err(VmError::TypeMismatch {
                during,
                expected: "location",
            }),
        }
    }

    /// Pops an arity count then that many slots, yielding a [`Template`]
    /// (slots may include wildcards). Fields are pushed first-to-last, so
    /// popping reverses them back into declaration order.
    ///
    /// # Errors
    ///
    /// Underflow or type errors per the stack protocol.
    pub fn pop_template(&mut self, during: &'static str) -> Result<Template, VmError> {
        let n = self.pop_value(during)?;
        if n < 0 {
            return Err(VmError::TypeMismatch {
                during,
                expected: "non-negative arity",
            });
        }
        let mut slots = Vec::with_capacity(n as usize);
        for _ in 0..n {
            slots.push(self.pop(during)?);
        }
        slots.reverse();
        Ok(Template::new(slots))
    }

    /// Pops an arity count then that many *concrete* fields, yielding a
    /// [`Tuple`]. Wildcards are rejected: tuples must be fully specified.
    ///
    /// # Errors
    ///
    /// Underflow, wildcard slots, or tuple construction errors.
    pub fn pop_tuple(&mut self, during: &'static str) -> Result<Tuple, VmError> {
        let template = self.pop_template(during)?;
        let mut fields = Vec::with_capacity(template.arity());
        for slot in template.slots() {
            match slot {
                TemplateField::Exact(f) => fields.push(*f),
                TemplateField::Any(_) => {
                    return Err(VmError::TypeMismatch {
                        during,
                        expected: "concrete field",
                    })
                }
            }
        }
        Tuple::new(fields).map_err(VmError::from)
    }

    /// Pushes a tuple per the stack protocol: fields in order, then arity.
    ///
    /// # Errors
    ///
    /// [`VmError::StackOverflow`] if the tuple does not fit.
    pub fn push_tuple(&mut self, tuple: &Tuple) -> Result<(), VmError> {
        for f in tuple.fields() {
            self.push_field(*f)?;
        }
        self.push_value(tuple.arity() as i16)
    }

    // --- heap -------------------------------------------------------------

    /// `getvar i`: copy heap slot `i` onto the stack.
    ///
    /// # Errors
    ///
    /// Index/empty-slot errors, or overflow on push.
    pub fn getvar(&mut self, i: u8) -> Result<(), VmError> {
        let idx = i as usize;
        if idx >= HEAP_SLOTS {
            return Err(VmError::HeapIndexOutOfRange { index: i });
        }
        let v = self.heap[idx].ok_or(VmError::HeapSlotEmpty { index: i })?;
        self.push(v)
    }

    /// `setvar i`: pop into heap slot `i`.
    ///
    /// # Errors
    ///
    /// Index errors or stack underflow.
    pub fn setvar(&mut self, i: u8) -> Result<(), VmError> {
        let idx = i as usize;
        if idx >= HEAP_SLOTS {
            return Err(VmError::HeapIndexOutOfRange { index: i });
        }
        let v = self.pop("setvar")?;
        self.heap[idx] = Some(v);
        Ok(())
    }

    // --- migration codec ----------------------------------------------------

    /// Serializes the *strong* migration image: registers, stack, and heap
    /// (code travels separately in code blocks; reactions are packaged by the
    /// tuple-space manager).
    pub fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.id.raw().to_le_bytes());
        out.extend_from_slice(&self.pc.to_le_bytes());
        out.extend_from_slice(&self.condition.to_le_bytes());
        out.extend_from_slice(&(self.code.len() as u16).to_le_bytes());
        out.push(self.depth);
        for v in self.stack() {
            v.encode(&mut out);
        }
        let written = self.heap.iter().filter(|s| s.is_some()).count();
        out.push(written as u8);
        for (i, slot) in self.heap.iter().enumerate() {
            if let Some(v) = slot {
                out.push(i as u8);
                v.encode(&mut out);
            }
        }
        out
    }

    /// Reconstructs an agent from a state image plus its code.
    ///
    /// # Errors
    ///
    /// [`VmError::Tuple`] wrapping decode errors for malformed images, or
    /// [`VmError::CodeTooLarge`] if the code exceeds the budget.
    pub fn decode_state(bytes: &[u8], code: Vec<u8>) -> Result<AgentState, VmError> {
        fn take<'a>(b: &mut &'a [u8], n: usize) -> Result<&'a [u8], VmError> {
            if b.len() < n {
                return Err(VmError::Tuple(TupleSpaceError::Decode("truncated state")));
            }
            let (head, tail) = b.split_at(n);
            *b = tail;
            Ok(head)
        }
        let mut b = bytes;
        let id = AgentId(u16::from_le_bytes(take(&mut b, 2)?.try_into().unwrap()));
        let pc = u16::from_le_bytes(take(&mut b, 2)?.try_into().unwrap());
        let condition = i16::from_le_bytes(take(&mut b, 2)?.try_into().unwrap());
        let code_len = u16::from_le_bytes(take(&mut b, 2)?.try_into().unwrap());
        if code_len as usize != code.len() {
            return Err(VmError::Tuple(TupleSpaceError::Decode(
                "code length mismatch",
            )));
        }
        let stack_len = take(&mut b, 1)?[0] as usize;
        if stack_len > STACK_DEPTH {
            return Err(VmError::Tuple(TupleSpaceError::Decode("stack too deep")));
        }
        let mut stack = [STALE; STACK_DEPTH];
        for slot in &mut stack[..stack_len] {
            let (v, n) = TemplateField::decode(b).map_err(VmError::from)?;
            *slot = v;
            b = &b[n..];
        }
        let heap_len = take(&mut b, 1)?[0] as usize;
        let mut heap: [Option<StackValue>; HEAP_SLOTS] = Default::default();
        for _ in 0..heap_len {
            let idx = take(&mut b, 1)?[0] as usize;
            if idx >= HEAP_SLOTS {
                return Err(VmError::Tuple(TupleSpaceError::Decode(
                    "heap index out of range",
                )));
            }
            let (v, n) = TemplateField::decode(b).map_err(VmError::from)?;
            heap[idx] = Some(v);
            b = &b[n..];
        }
        let mut agent = AgentState::with_code(id, code)?;
        agent.pc = pc;
        agent.condition = condition;
        agent.depth = stack_len as u8;
        agent.stack = stack;
        agent.heap = heap;
        Ok(agent)
    }
}

impl fmt::Display for AgentState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[pc={} cond={} stack={} code={}B]",
            self.id,
            self.pc,
            self.condition,
            self.depth,
            self.code.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wsn_common::SensorType;

    fn agent() -> AgentState {
        AgentState::with_code(AgentId(1), vec![0x00]).unwrap()
    }

    #[test]
    fn code_budget_enforced() {
        let err = AgentState::with_code(AgentId(1), vec![0; 441]).unwrap_err();
        assert_eq!(
            err,
            VmError::CodeTooLarge {
                size: 441,
                max: 440
            }
        );
        assert!(AgentState::with_code(AgentId(1), vec![0; 440]).is_ok());
    }

    #[test]
    fn stack_depth_enforced() {
        let mut a = agent();
        for i in 0..STACK_DEPTH as i16 {
            a.push_value(i).unwrap();
        }
        assert_eq!(a.push_value(99), Err(VmError::StackOverflow));
        assert_eq!(a.stack_depth(), STACK_DEPTH);
        // The refused push left the 16 values in place; they drain in
        // order down to an underflow.
        for i in (0..STACK_DEPTH as i16).rev() {
            assert_eq!(a.pop_value("t"), Ok(i));
        }
        assert_eq!(a.pop("t"), Err(VmError::StackUnderflow { during: "t" }));
    }

    #[test]
    fn popped_slots_are_invisible() {
        // A push and a pop leave the value in a slot above the live depth;
        // equality, Debug, Display and the state image must not see it.
        let fresh = agent();
        let mut a = agent();
        a.push_field(Field::str("fir")).unwrap();
        assert_eq!(a.pop("t"), Ok(TemplateField::Exact(Field::str("fir"))));
        assert_eq!(a, fresh);
        assert_eq!(format!("{a:?}"), format!("{fresh:?}"));
        assert_eq!(a.to_string(), fresh.to_string());
        assert_eq!(a.encode_state(), fresh.encode_state());
        assert!(a.stack().is_empty());
    }

    #[test]
    fn pop_empty_underflows() {
        let mut a = agent();
        assert_eq!(
            a.pop("test"),
            Err(VmError::StackUnderflow { during: "test" })
        );
    }

    #[test]
    fn pop_value_type_checked() {
        let mut a = agent();
        a.push_field(Field::str("fir")).unwrap();
        assert_eq!(
            a.pop_value("add"),
            Err(VmError::TypeMismatch {
                during: "add",
                expected: "value"
            })
        );
    }

    #[test]
    fn pop_location_type_checked() {
        let mut a = agent();
        a.push_value(5).unwrap();
        assert!(a.pop_location("smove").is_err());
        a.push_field(Field::location(Location::new(5, 1))).unwrap();
        assert_eq!(a.pop_location("smove").unwrap(), Location::new(5, 1));
    }

    #[test]
    fn tuple_stack_protocol_roundtrip() {
        let mut a = agent();
        let t = Tuple::new(vec![
            Field::str("fir"),
            Field::location(Location::new(2, 2)),
        ])
        .unwrap();
        a.push_tuple(&t).unwrap();
        assert_eq!(a.stack_depth(), 3); // 2 fields + arity
        let back = a.pop_tuple("out").unwrap();
        assert_eq!(back, t);
        assert_eq!(a.stack_depth(), 0);
    }

    #[test]
    fn template_with_wildcards_pops_in_order() {
        let mut a = agent();
        a.push_field(Field::str("fir")).unwrap();
        a.push(TemplateField::Any(agilla_tuplespace::FieldType::Location))
            .unwrap();
        a.push_value(2).unwrap();
        let tmpl = a.pop_template("regrxn").unwrap();
        assert_eq!(tmpl.arity(), 2);
        assert_eq!(tmpl.slots()[0], TemplateField::Exact(Field::str("fir")));
        assert!(matches!(tmpl.slots()[1], TemplateField::Any(_)));
    }

    #[test]
    fn pop_tuple_rejects_wildcards() {
        let mut a = agent();
        a.push(TemplateField::Any(agilla_tuplespace::FieldType::Value))
            .unwrap();
        a.push_value(1).unwrap();
        assert!(matches!(
            a.pop_tuple("out"),
            Err(VmError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn pop_template_rejects_negative_arity() {
        let mut a = agent();
        a.push_value(-1).unwrap();
        assert!(a.pop_template("out").is_err());
    }

    #[test]
    fn heap_read_write() {
        let mut a = agent();
        a.push_value(42).unwrap();
        a.setvar(3).unwrap();
        assert_eq!(a.stack_depth(), 0);
        a.getvar(3).unwrap();
        assert_eq!(a.pop_value("t").unwrap(), 42);
        // Reading again still works (getvar copies).
        a.getvar(3).unwrap();
        assert_eq!(a.pop_value("t").unwrap(), 42);
    }

    #[test]
    fn heap_bounds_and_empty_slots() {
        let mut a = agent();
        assert_eq!(
            a.getvar(12),
            Err(VmError::HeapIndexOutOfRange { index: 12 })
        );
        a.push_value(1).unwrap();
        assert_eq!(
            a.setvar(255),
            Err(VmError::HeapIndexOutOfRange { index: 255 })
        );
        assert_eq!(a.getvar(0), Err(VmError::HeapSlotEmpty { index: 0 }));
    }

    #[test]
    fn weak_reset_clears_everything_but_code_and_id() {
        let mut a = agent();
        a.push_value(1).unwrap();
        a.setvar(0).unwrap();
        a.push_value(2).unwrap();
        a.set_pc(7);
        a.set_condition(1);
        a.reset_weak();
        assert_eq!(a.pc(), 0);
        assert_eq!(a.condition(), 0);
        assert_eq!(a.stack_depth(), 0);
        assert!(a.heap(0).is_none());
        assert_eq!(a.id(), AgentId(1));
        assert_eq!(a.code(), &[0x00]);
    }

    #[test]
    fn state_codec_roundtrip() {
        let mut a = AgentState::with_code(AgentId(7), vec![0x00, 0x01, 0x02]).unwrap();
        a.set_pc(2);
        a.set_condition(-3);
        a.push_value(11).unwrap();
        a.push_field(Field::location(Location::new(4, 4))).unwrap();
        a.push_field(Field::reading(SensorType::Temperature, 222))
            .unwrap();
        a.push_value(1).unwrap();
        a.setvar(5).unwrap();
        let bytes = a.encode_state();
        let back = AgentState::decode_state(&bytes, a.code().to_vec()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn state_codec_roundtrip_at_full_depth() {
        let mut a = AgentState::with_code(AgentId(7), vec![0x00; 4]).unwrap();
        for i in 0..STACK_DEPTH as i16 {
            a.push_value(i * 3 - 20).unwrap();
        }
        a.push_value(-1).unwrap_err();
        let bytes = a.encode_state();
        let back = AgentState::decode_state(&bytes, a.code().to_vec()).unwrap();
        assert_eq!(back.stack_depth(), STACK_DEPTH);
        assert_eq!(back, a);
        // One slot deeper than the stack holds is refused.
        let mut deeper = bytes.clone();
        deeper[8] = STACK_DEPTH as u8 + 1;
        assert!(AgentState::decode_state(&deeper, a.code().to_vec()).is_err());
    }

    #[test]
    fn state_codec_rejects_corruption() {
        let a = agent();
        let bytes = a.encode_state();
        // Truncations at every prefix must error, not panic.
        for cut in 0..bytes.len() {
            assert!(AgentState::decode_state(&bytes[..cut], a.code().to_vec()).is_err());
        }
        // Mismatched code length.
        assert!(AgentState::decode_state(&bytes, vec![0; 9]).is_err());
    }

    #[test]
    fn display_is_informative() {
        let a = agent();
        assert_eq!(a.to_string(), "a1[pc=0 cond=0 stack=0 code=1B]");
    }

    proptest! {
        #[test]
        fn prop_state_roundtrip(
            pc in 0u16..100,
            cond in any::<i16>(),
            vals in proptest::collection::vec(any::<i16>(), 0..STACK_DEPTH),
            heap_writes in proptest::collection::vec((0u8..HEAP_SLOTS as u8, any::<i16>()), 0..6),
        ) {
            let mut a = AgentState::with_code(AgentId(9), vec![0; 100]).unwrap();
            a.set_pc(pc);
            a.set_condition(cond);
            for v in &vals {
                a.push_value(*v).unwrap();
            }
            for (i, v) in &heap_writes {
                a.push_value(*v).unwrap();
                a.setvar(*i).unwrap();
            }
            let bytes = a.encode_state();
            let back = AgentState::decode_state(&bytes, a.code().to_vec()).unwrap();
            prop_assert_eq!(back, a);
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..64)) {
            let _ = AgentState::decode_state(&bytes, vec![]);
        }
    }
}
