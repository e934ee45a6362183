//! The per-node tuple space storage.

use std::fmt;

use crate::error::TupleSpaceError;
use crate::template::Template;
use crate::tuple::{Tuple, MAX_TUPLE_BYTES};

/// Storage discipline for the tuple arena.
///
/// The paper chose the linear layout: "To prevent internal fragmentation and
/// the need for forward pointers, the 600-bytes are allocated linearly. When
/// a tuple is removed, all following tuples are shifted forward. While this
/// may result in more memory swapping, it is simple." (Section 3.2). The
/// free-list alternative exists for the arena-discipline ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArenaKind {
    /// Paper's design: contiguous storage, shift-compaction on removal.
    #[default]
    Linear,
    /// Alternative: block slots with forward pointers; removal leaves holes,
    /// each stored tuple pays a 2-byte pointer overhead.
    FreeList,
}

/// A node's local tuple space.
///
/// Capacity is a byte budget, not a tuple count: the paper's default is 600
/// bytes. Every mutation maintains the byte-accounting invariant checked by
/// [`TupleSpace::used_bytes`].
///
/// # Examples
///
/// ```
/// use agilla_tuplespace::{Field, Template, TemplateField, Tuple, TupleSpace};
///
/// let mut ts = TupleSpace::with_default_capacity();
/// ts.out(Tuple::new(vec![Field::value(7)]).unwrap()).unwrap();
/// let tmpl = Template::new(vec![TemplateField::any_value()]);
/// assert_eq!(ts.count(&tmpl), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TupleSpace {
    kind: ArenaKind,
    capacity: usize,
    /// Linear arena: encoded tuples back-to-back in `arena[..used]`.
    arena: Vec<u8>,
    used: usize,
    /// Free-list arena: independently stored encoded tuples (None = hole).
    slots: Vec<Option<Vec<u8>>>,
    slot_bytes: usize,
    /// Total bytes moved by shift-compaction (ablation metric).
    shifted_bytes: u64,
}

/// Per-tuple overhead in [`ArenaKind::FreeList`] mode (forward pointer).
const FREELIST_PTR_BYTES: usize = 2;

impl TupleSpace {
    /// The paper's default arena budget: "By default, it is allocated 600
    /// bytes" (Section 3.2).
    pub const DEFAULT_CAPACITY: usize = 600;

    /// Creates a linear-arena space with the paper's 600-byte budget.
    pub fn with_default_capacity() -> Self {
        TupleSpace::new(Self::DEFAULT_CAPACITY, ArenaKind::Linear)
    }

    /// Creates a space with an explicit byte budget and arena discipline.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` cannot hold even one maximum-size tuple.
    pub fn new(capacity: usize, kind: ArenaKind) -> Self {
        assert!(
            capacity >= MAX_TUPLE_BYTES,
            "capacity {capacity} cannot hold one {MAX_TUPLE_BYTES}-byte tuple"
        );
        TupleSpace {
            kind,
            capacity,
            arena: Vec::new(),
            used: 0,
            slots: Vec::new(),
            slot_bytes: 0,
            shifted_bytes: 0,
        }
    }

    /// The configured byte budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently consumed (including free-list pointer overhead).
    pub fn used_bytes(&self) -> usize {
        match self.kind {
            ArenaKind::Linear => self.used,
            ArenaKind::FreeList => self.slot_bytes,
        }
    }

    /// Bytes still available for insertion.
    pub fn free_bytes(&self) -> usize {
        self.capacity - self.used_bytes()
    }

    /// Total bytes moved by shift-compaction so far (always zero for
    /// [`ArenaKind::FreeList`]); the cost the paper accepts for simplicity.
    pub fn shifted_bytes(&self) -> u64 {
        self.shifted_bytes
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        match self.kind {
            ArenaKind::Linear => self.iter_linear().count(),
            ArenaKind::FreeList => self.slots.iter().flatten().count(),
        }
    }

    /// Whether the space holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `out`: inserts a tuple (atomic, local).
    ///
    /// # Errors
    ///
    /// [`TupleSpaceError::SpaceFull`] if the arena cannot hold the tuple.
    pub fn out(&mut self, tuple: Tuple) -> Result<(), TupleSpaceError> {
        let bytes = tuple.encode();
        match self.kind {
            ArenaKind::Linear => {
                if self.used + bytes.len() > self.capacity {
                    return Err(TupleSpaceError::SpaceFull {
                        needed: bytes.len(),
                        available: self.capacity - self.used,
                    });
                }
                if self.arena.len() < self.used + bytes.len() {
                    self.arena.resize(self.used + bytes.len(), 0);
                }
                self.arena[self.used..self.used + bytes.len()].copy_from_slice(&bytes);
                self.used += bytes.len();
                Ok(())
            }
            ArenaKind::FreeList => {
                let need = bytes.len() + FREELIST_PTR_BYTES;
                if self.slot_bytes + need > self.capacity {
                    return Err(TupleSpaceError::SpaceFull {
                        needed: need,
                        available: self.capacity - self.slot_bytes,
                    });
                }
                self.slot_bytes += need;
                if let Some(hole) = self.slots.iter_mut().find(|s| s.is_none()) {
                    *hole = Some(bytes);
                } else {
                    self.slots.push(Some(bytes));
                }
                Ok(())
            }
        }
    }

    /// `rdp`: non-blocking read — returns a copy of the first matching tuple.
    pub fn rdp(&self, template: &Template) -> Option<Tuple> {
        match self.kind {
            ArenaKind::Linear => self
                .iter_linear()
                .map(|(_, _, t)| t)
                .find(|t| template.matches(t)),
            ArenaKind::FreeList => self
                .slots
                .iter()
                .flatten()
                .filter_map(|b| Tuple::decode(b).ok().map(|(t, _)| t))
                .find(|t| template.matches(t)),
        }
    }

    /// `inp`: non-blocking take — removes and returns the first matching
    /// tuple. In linear mode, all following tuples shift forward.
    pub fn inp(&mut self, template: &Template) -> Option<Tuple> {
        match self.kind {
            ArenaKind::Linear => {
                let (off, len, tuple) = self.iter_linear().find(|(_, _, t)| template.matches(t))?;
                let tail = self.used - (off + len);
                self.arena.copy_within(off + len..self.used, off);
                self.used -= len;
                self.shifted_bytes += tail as u64;
                Some(tuple)
            }
            ArenaKind::FreeList => {
                for slot in self.slots.iter_mut() {
                    if let Some(bytes) = slot {
                        if let Ok((t, _)) = Tuple::decode(bytes) {
                            if template.matches(&t) {
                                self.slot_bytes -= bytes.len() + FREELIST_PTR_BYTES;
                                *slot = None;
                                return Some(t);
                            }
                        }
                    }
                }
                None
            }
        }
    }

    /// `tcount`: number of stored tuples matching `template`.
    pub fn count(&self, template: &Template) -> usize {
        self.iter().filter(|t| template.matches(t)).count()
    }

    /// Iterates over stored tuples in storage order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = Tuple> + '_> {
        match self.kind {
            ArenaKind::Linear => Box::new(self.iter_linear().map(|(_, _, t)| t)),
            ArenaKind::FreeList => Box::new(
                self.slots
                    .iter()
                    .flatten()
                    .filter_map(|b| Tuple::decode(b).ok().map(|(t, _)| t)),
            ),
        }
    }

    /// Removes every tuple.
    pub fn clear(&mut self) {
        self.used = 0;
        self.slots.clear();
        self.slot_bytes = 0;
    }

    fn iter_linear(&self) -> LinearIter<'_> {
        LinearIter {
            arena: &self.arena[..self.used],
            off: 0,
        }
    }
}

impl Default for TupleSpace {
    fn default() -> Self {
        TupleSpace::with_default_capacity()
    }
}

impl fmt::Display for TupleSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TupleSpace[{}/{}B, {} tuples]",
            self.used_bytes(),
            self.capacity,
            self.len()
        )
    }
}

struct LinearIter<'a> {
    arena: &'a [u8],
    off: usize,
}

impl Iterator for LinearIter<'_> {
    /// (byte offset, encoded length, decoded tuple)
    type Item = (usize, usize, Tuple);

    fn next(&mut self) -> Option<Self::Item> {
        if self.off >= self.arena.len() {
            return None;
        }
        match Tuple::decode(&self.arena[self.off..]) {
            Ok((t, n)) => {
                let item = (self.off, n, t);
                self.off += n;
                Some(item)
            }
            // Arena corruption cannot happen through the public API; stop
            // iterating defensively rather than looping forever.
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;
    use crate::template::TemplateField;
    use proptest::prelude::*;

    fn val_tuple(v: i16) -> Tuple {
        Tuple::new(vec![Field::value(v)]).unwrap()
    }

    fn any_value_tmpl() -> Template {
        Template::new(vec![TemplateField::any_value()])
    }

    fn exact_tmpl(v: i16) -> Template {
        Template::new(vec![TemplateField::exact(Field::value(v))])
    }

    #[test]
    fn out_then_rdp_then_inp() {
        let mut ts = TupleSpace::with_default_capacity();
        let t = val_tuple(5);
        ts.out(t.clone()).unwrap();
        assert_eq!(ts.rdp(&any_value_tmpl()), Some(t.clone()));
        assert_eq!(ts.len(), 1, "rdp must not remove");
        assert_eq!(ts.inp(&any_value_tmpl()), Some(t));
        assert_eq!(ts.len(), 0, "inp must remove");
        assert_eq!(ts.inp(&any_value_tmpl()), None);
    }

    #[test]
    fn fifo_order_among_matches() {
        let mut ts = TupleSpace::with_default_capacity();
        for v in [1, 2, 3] {
            ts.out(val_tuple(v)).unwrap();
        }
        assert_eq!(ts.inp(&any_value_tmpl()), Some(val_tuple(1)));
        assert_eq!(ts.inp(&any_value_tmpl()), Some(val_tuple(2)));
        assert_eq!(ts.inp(&any_value_tmpl()), Some(val_tuple(3)));
    }

    #[test]
    fn removal_shifts_and_preserves_others() {
        let mut ts = TupleSpace::with_default_capacity();
        for v in [10, 20, 30, 40] {
            ts.out(val_tuple(v)).unwrap();
        }
        assert_eq!(ts.inp(&exact_tmpl(20)), Some(val_tuple(20)));
        // Remaining tuples still intact and in order.
        let left: Vec<_> = ts.iter().collect();
        assert_eq!(left, vec![val_tuple(10), val_tuple(30), val_tuple(40)]);
        assert!(ts.shifted_bytes() > 0, "middle removal must shift the tail");
    }

    #[test]
    fn removing_last_tuple_shifts_nothing() {
        let mut ts = TupleSpace::with_default_capacity();
        ts.out(val_tuple(1)).unwrap();
        ts.out(val_tuple(2)).unwrap();
        ts.inp(&exact_tmpl(2)).unwrap();
        assert_eq!(ts.shifted_bytes(), 0);
    }

    #[test]
    fn capacity_is_enforced() {
        // 4-byte tuples (1 arity + 3 value): 600/4 = 150 fit exactly.
        let mut ts = TupleSpace::with_default_capacity();
        for v in 0..150 {
            ts.out(val_tuple(v)).unwrap();
        }
        assert_eq!(ts.free_bytes(), 0);
        match ts.out(val_tuple(999)) {
            Err(TupleSpaceError::SpaceFull { needed, available }) => {
                assert_eq!(needed, 4);
                assert_eq!(available, 0);
            }
            other => panic!("expected SpaceFull, got {other:?}"),
        }
        // Removing one frees room again.
        ts.inp(&exact_tmpl(0)).unwrap();
        ts.out(val_tuple(999)).unwrap();
    }

    #[test]
    fn count_matches_template_only() {
        let mut ts = TupleSpace::with_default_capacity();
        ts.out(val_tuple(1)).unwrap();
        ts.out(val_tuple(1)).unwrap();
        ts.out(val_tuple(2)).unwrap();
        ts.out(Tuple::new(vec![Field::str("fir")]).unwrap())
            .unwrap();
        assert_eq!(ts.count(&exact_tmpl(1)), 2);
        assert_eq!(ts.count(&any_value_tmpl()), 3);
        assert_eq!(ts.count(&Template::new(vec![TemplateField::any_str()])), 1);
    }

    #[test]
    fn clear_empties() {
        let mut ts = TupleSpace::with_default_capacity();
        ts.out(val_tuple(1)).unwrap();
        ts.clear();
        assert!(ts.is_empty());
        assert_eq!(ts.used_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot hold one")]
    fn tiny_capacity_rejected() {
        TupleSpace::new(10, ArenaKind::Linear);
    }

    #[test]
    fn freelist_basic_ops() {
        let mut ts = TupleSpace::new(600, ArenaKind::FreeList);
        ts.out(val_tuple(1)).unwrap();
        ts.out(val_tuple(2)).unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.inp(&exact_tmpl(1)), Some(val_tuple(1)));
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.shifted_bytes(), 0, "free list never shifts");
        // Hole is reused.
        ts.out(val_tuple(3)).unwrap();
        assert_eq!(ts.slots.len(), 2, "hole should be reused, not appended");
    }

    #[test]
    fn freelist_pays_pointer_overhead() {
        let mut lin = TupleSpace::new(600, ArenaKind::Linear);
        let mut fl = TupleSpace::new(600, ArenaKind::FreeList);
        lin.out(val_tuple(1)).unwrap();
        fl.out(val_tuple(1)).unwrap();
        assert_eq!(fl.used_bytes(), lin.used_bytes() + FREELIST_PTR_BYTES);
    }

    #[test]
    fn display_reports_occupancy() {
        let mut ts = TupleSpace::with_default_capacity();
        ts.out(val_tuple(1)).unwrap();
        assert_eq!(ts.to_string(), "TupleSpace[4/600B, 1 tuples]");
    }

    proptest! {
        /// Linear and free-list disciplines are observationally equivalent
        /// for any sequence of out/inp operations (modulo capacity, which
        /// differs by the pointer overhead — we keep the workload small).
        #[test]
        fn prop_disciplines_equivalent(ops in proptest::collection::vec((0i16..6, proptest::bool::ANY), 0..60)) {
            let mut lin = TupleSpace::new(600, ArenaKind::Linear);
            let mut fl = TupleSpace::new(1024, ArenaKind::FreeList);
            for (v, is_out) in ops {
                if is_out {
                    let _ = lin.out(val_tuple(v));
                    let _ = fl.out(val_tuple(v));
                } else {
                    prop_assert_eq!(lin.inp(&exact_tmpl(v)), fl.inp(&exact_tmpl(v)));
                }
            }
            let mut a: Vec<_> = lin.iter().collect();
            let mut b: Vec<_> = fl.iter().collect();
            a.sort_by_key(|t| format!("{t}"));
            b.sort_by_key(|t| format!("{t}"));
            prop_assert_eq!(a, b);
        }

        /// Byte accounting never exceeds capacity and out/inp round-trips.
        #[test]
        fn prop_accounting_invariant(vals in proptest::collection::vec(any::<i16>(), 1..200)) {
            let mut ts = TupleSpace::with_default_capacity();
            let mut stored = 0usize;
            for v in &vals {
                if ts.out(val_tuple(*v)).is_ok() {
                    stored += 1;
                }
                prop_assert!(ts.used_bytes() <= ts.capacity());
                prop_assert_eq!(ts.used_bytes(), stored * 4);
            }
            for _ in 0..stored {
                prop_assert!(ts.inp(&any_value_tmpl()).is_some());
            }
            prop_assert!(ts.is_empty());
        }
    }
}
