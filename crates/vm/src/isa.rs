//! The Agilla instruction set architecture.
//!
//! "Agilla's ISA is based on that of Maté. However, there are many
//! differences that are necessary for supporting agent mobility and tuple
//! spaces." (Section 3.4). Opcode byte values follow Fig. 7 where the paper
//! fixes them (`loc`=0x01, `wait`=0x0b, `smove`=0x1a, `wclone`=0x1d,
//! `getnbr`=0x20, `out`=0x33, `inp`=0x34, `rd`=0x37, `rout`=0x39,
//! `rinp`=0x3a, `regrxn`=0x3e); the rest fill consistent gaps.
//!
//! "With a few exceptions, an instruction is one byte" (Section 3.2); the
//! exceptions are the push family carrying inline immediates (2–4 bytes).

use std::fmt;

use crate::error::VmError;

/// Every Agilla opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Opcode {
    // --- general purpose (Maté-derived core) ---
    /// Kill the executing agent and free its resources.
    Halt = 0x00,
    /// Push the host node's location.
    Loc = 0x01,
    /// Push the executing agent's id.
    Aid = 0x02,
    /// Push a uniformly random 16-bit value.
    Rand = 0x03,
    /// Discard the top of stack.
    Pop = 0x04,
    /// Duplicate the top of stack.
    Copy = 0x05,
    /// Exchange the top two stack entries.
    Swap = 0x06,
    /// Reset the condition code to zero.
    Clear = 0x07,
    /// Pop b, pop a, push a+b (16-bit wrapping).
    Add = 0x08,
    /// Pop b, pop a, push a-b (16-bit wrapping).
    Sub = 0x09,
    /// Pop b, pop a, push bitwise a&b.
    And = 0x0a,
    /// Deschedule until one of this agent's reactions fires.
    Wait = 0x0b,
    /// Pop b, pop a, push bitwise a|b.
    Or = 0x0c,
    /// Pop a, push bitwise !a.
    Not = 0x0d,
    /// Pop b, pop a, push 1 if a==b else 0 (works on any slot type).
    Eq = 0x0e,
    /// Pop b, pop a, condition = 1 if a==b else 0.
    Ceq = 0x0f,
    /// Pop b, pop a, condition = 1 if b < a (top less than second) —
    /// operand order per the FireDetector listing (Fig. 13).
    Clt = 0x10,
    /// Pop b, pop a, condition = 1 if b > a.
    Cgt = 0x11,
    /// Pop tick count; sleep that many 1/8-second ticks (Fig. 13 sleeps
    /// `4800` ticks for ten minutes).
    Sleep = 0x12,
    /// Pop a value; display its low bits on the LEDs.
    PutLed = 0x13,
    /// Pop a sensor-type code; push the measured value (split-phase on the
    /// mote: the engine may deschedule the agent while the ADC runs).
    Sense = 0x14,
    /// Increment the top of stack in place.
    Inc = 0x15,
    /// Pop an address and jump to it (used to return from reactions, whose
    /// entry pushed the interrupted pc).
    Jumps = 0x16,
    /// Pop a value, push the remainder of dividing it by the new top
    /// (pop b, pop a, push a mod b); companion of `rand` for ranged draws.
    Mod = 0x17,
    /// Halve the top of stack (arithmetic shift right by one).
    Halve = 0x18,
    /// Pop y, pop x (both values), push the location (x, y) — lets agents
    /// compute migration targets and region addresses.
    Makeloc = 0x19,

    // --- migration (Section 2.2) ---
    /// Strong move: carry code and state, resume after this instruction.
    Smove = 0x1a,
    /// Weak move: carry code only, restart from pc 0.
    Wmove = 0x1b,
    /// Strong clone: copy code and state; both copies continue.
    Sclone = 0x1c,
    /// Weak clone: copy code only; the copy restarts from pc 0.
    Wclone = 0x1d,

    // --- context discovery (Section 3.2, Context Manager) ---
    /// Push the number of one-hop neighbors.
    Numnbrs = 0x1f,
    /// Pop an index, push that neighbor's location.
    Getnbr = 0x20,
    /// Push a uniformly random neighbor's location.
    Randnbr = 0x21,

    // --- tuple space (Section 2.2) ---
    /// Pop a tuple; insert it into the local tuple space.
    Out = 0x33,
    /// Pop a template; non-blocking take. Success: push tuple, cond=1.
    Inp = 0x34,
    /// Pop a template; non-blocking read. Success: push tuple, cond=1.
    Rdp = 0x35,
    /// Pop a template; blocking take.
    In = 0x36,
    /// Pop a template; blocking read.
    Rd = 0x37,
    /// Pop a template; push the count of matching local tuples.
    Tcount = 0x38,
    /// Pop a location, pop a tuple; insert into the remote tuple space.
    Rout = 0x39,
    /// Pop a location, pop a template; remote non-blocking take.
    Rinp = 0x3a,
    /// Pop a location, pop a template; remote non-blocking read.
    Rrdp = 0x3b,
    /// Pop a handler address, pop a template; register a reaction.
    Regrxn = 0x3e,
    /// Pop a template; deregister this agent's reaction on it.
    Deregrxn = 0x3f,

    // --- push family (multi-byte) ---
    /// Push an unsigned 8-bit immediate as a 16-bit value (2 bytes).
    Pushc = 0x40,
    /// Push a signed 16-bit immediate (3 bytes — the "few exceptions").
    Pushcl = 0x41,
    /// Push a location from two signed 8-bit immediates (3 bytes).
    Pushloc = 0x42,
    /// Push a three-character string name (4 bytes).
    Pushn = 0x43,
    /// Push a by-type wildcard for template construction (2 bytes).
    Pusht = 0x44,
    /// Push a sensor-type field, e.g. for capability tuples (2 bytes).
    Pushrt = 0x45,

    // --- heap (Fig. 6) ---
    /// Push a copy of heap variable `i` (2 bytes).
    Getvar = 0x50,
    /// Pop into heap variable `i` (2 bytes).
    Setvar = 0x51,

    // --- control flow ---
    /// Relative jump by a signed byte offset (2 bytes).
    Rjump = 0x60,
    /// Relative jump if the condition code is non-zero (2 bytes).
    Rjumpc = 0x61,
}

impl Opcode {
    /// All opcodes, for exhaustive table-driven tests.
    pub const ALL: [Opcode; 54] = [
        Opcode::Halt,
        Opcode::Loc,
        Opcode::Aid,
        Opcode::Rand,
        Opcode::Pop,
        Opcode::Copy,
        Opcode::Swap,
        Opcode::Clear,
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Wait,
        Opcode::Or,
        Opcode::Not,
        Opcode::Eq,
        Opcode::Ceq,
        Opcode::Clt,
        Opcode::Cgt,
        Opcode::Sleep,
        Opcode::PutLed,
        Opcode::Sense,
        Opcode::Inc,
        Opcode::Jumps,
        Opcode::Mod,
        Opcode::Halve,
        Opcode::Makeloc,
        Opcode::Smove,
        Opcode::Wmove,
        Opcode::Sclone,
        Opcode::Wclone,
        Opcode::Numnbrs,
        Opcode::Getnbr,
        Opcode::Randnbr,
        Opcode::Out,
        Opcode::Inp,
        Opcode::Rdp,
        Opcode::In,
        Opcode::Rd,
        Opcode::Tcount,
        Opcode::Rout,
        Opcode::Rinp,
        Opcode::Rrdp,
        Opcode::Regrxn,
        Opcode::Deregrxn,
        Opcode::Pushc,
        Opcode::Pushcl,
        Opcode::Pushloc,
        Opcode::Pushn,
        Opcode::Pusht,
        Opcode::Pushrt,
        Opcode::Getvar,
        Opcode::Setvar,
        Opcode::Rjump,
        Opcode::Rjumpc,
    ];

    /// Decodes an opcode byte.
    pub fn from_byte(b: u8) -> Result<Opcode, VmError> {
        BY_BYTE[usize::from(b)].ok_or(VmError::InvalidOpcode(b))
    }

    /// Total encoded length of this instruction, including inline operands.
    pub fn encoded_len(self) -> usize {
        match self {
            Opcode::Pushcl | Opcode::Pushloc => 3,
            Opcode::Pushn => 4,
            Opcode::Pushc
            | Opcode::Pusht
            | Opcode::Pushrt
            | Opcode::Getvar
            | Opcode::Setvar
            | Opcode::Rjump
            | Opcode::Rjumpc => 2,
            _ => 1,
        }
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Halt => "halt",
            Opcode::Loc => "loc",
            Opcode::Aid => "aid",
            Opcode::Rand => "rand",
            Opcode::Pop => "pop",
            Opcode::Copy => "copy",
            Opcode::Swap => "swap",
            Opcode::Clear => "clear",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::And => "and",
            Opcode::Wait => "wait",
            Opcode::Or => "or",
            Opcode::Not => "not",
            Opcode::Eq => "eq",
            Opcode::Ceq => "ceq",
            Opcode::Clt => "clt",
            Opcode::Cgt => "cgt",
            Opcode::Sleep => "sleep",
            Opcode::PutLed => "putled",
            Opcode::Sense => "sense",
            Opcode::Inc => "inc",
            Opcode::Jumps => "jumps",
            Opcode::Mod => "mod",
            Opcode::Halve => "halve",
            Opcode::Makeloc => "makeloc",
            Opcode::Smove => "smove",
            Opcode::Wmove => "wmove",
            Opcode::Sclone => "sclone",
            Opcode::Wclone => "wclone",
            Opcode::Numnbrs => "numnbrs",
            Opcode::Getnbr => "getnbr",
            Opcode::Randnbr => "randnbr",
            Opcode::Out => "out",
            Opcode::Inp => "inp",
            Opcode::Rdp => "rdp",
            Opcode::In => "in",
            Opcode::Rd => "rd",
            Opcode::Tcount => "tcount",
            Opcode::Rout => "rout",
            Opcode::Rinp => "rinp",
            Opcode::Rrdp => "rrdp",
            Opcode::Regrxn => "regrxn",
            Opcode::Deregrxn => "deregrxn",
            Opcode::Pushc => "pushc",
            Opcode::Pushcl => "pushcl",
            Opcode::Pushloc => "pushloc",
            Opcode::Pushn => "pushn",
            Opcode::Pusht => "pusht",
            Opcode::Pushrt => "pushrt",
            Opcode::Getvar => "getvar",
            Opcode::Setvar => "setvar",
            Opcode::Rjump => "rjump",
            Opcode::Rjumpc => "rjumpc",
        }
    }

    /// Parses a mnemonic (lowercase).
    pub fn from_mnemonic(m: &str) -> Option<Opcode> {
        Opcode::ALL.iter().copied().find(|op| op.mnemonic() == m)
    }
}

/// Byte → opcode, filled from [`Opcode::ALL`] at compile time.
const BY_BYTE: [Option<Opcode>; 256] = {
    let mut table = [None; 256];
    let mut i = 0;
    while i < Opcode::ALL.len() {
        table[Opcode::ALL[i] as usize] = Some(Opcode::ALL[i]);
        i += 1;
    }
    table
};

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A decoded instruction: opcode plus its inline operand bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruction {
    /// The opcode.
    pub op: Opcode,
    /// Inline operand bytes, zero-padded to the maximum width (3).
    pub operand: [u8; 3],
}

impl Instruction {
    /// Decodes the instruction at `pc` within `code`, returning it and its
    /// total encoded length.
    ///
    /// # Errors
    ///
    /// [`VmError::PcOutOfRange`], [`VmError::InvalidOpcode`], or
    /// [`VmError::TruncatedOperand`].
    pub fn decode(code: &[u8], pc: u16) -> Result<(Instruction, usize), VmError> {
        let idx = pc as usize;
        if idx >= code.len() {
            return Err(VmError::PcOutOfRange {
                pc,
                code_len: code.len(),
            });
        }
        let op = Opcode::from_byte(code[idx])?;
        let len = op.encoded_len();
        if idx + len > code.len() {
            return Err(VmError::TruncatedOperand(op.mnemonic()));
        }
        let operand_byte = |i: usize| if i < len { code[idx + i] } else { 0 };
        let operand = [operand_byte(1), operand_byte(2), operand_byte(3)];
        Ok((Instruction { op, operand }, len))
    }

    /// The operand as an unsigned byte (push/heap/jump family).
    pub fn operand_u8(&self) -> u8 {
        self.operand[0]
    }

    /// The operand as a signed byte (relative jumps).
    pub fn operand_i8(&self) -> i8 {
        self.operand[0] as i8
    }

    /// The operand as a signed 16-bit little-endian value (`pushcl`).
    pub fn operand_i16(&self) -> i16 {
        i16::from_le_bytes([self.operand[0], self.operand[1]])
    }

    /// The operand as an (x, y) pair of signed bytes (`pushloc`).
    pub fn operand_xy(&self) -> (i8, i8) {
        (self.operand[0] as i8, self.operand[1] as i8)
    }

    /// The operand as three ASCII bytes (`pushn`).
    pub fn operand_str3(&self) -> [u8; 3] {
        self.operand
    }
}

/// Which power state an instruction's cost should be attributed to when
/// energy accounting is on: plain CPU work, a sensor-board sample, or a
/// split-phase operation whose real cost is radio protocol traffic (the
/// network layer charges radio energy separately as frames actually fly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnergyClass {
    /// Pure CPU: the interpreter and local managers.
    Cpu,
    /// `sense`: CPU plus the powered sensor board for the ADC window.
    Sensing,
    /// Migration and remote tuple-space instructions: the local cost is
    /// CPU, the dominant cost is the radio traffic they trigger.
    Radio,
}

/// Cost of a fired-reaction context switch, µs of simulated mote time.
pub const REACTION_DISPATCH_US: u64 = 120;

impl Opcode {
    /// The power state this instruction's execution time belongs to.
    pub fn energy_class(self) -> EnergyClass {
        use Opcode::*;
        match self {
            Sense => EnergyClass::Sensing,
            Smove | Wmove | Sclone | Wclone | Rout | Rinp | Rrdp => EnergyClass::Radio,
            _ => EnergyClass::Cpu,
        }
    }

    /// Execution cost of this instruction, µs of simulated mote CPU time.
    ///
    /// Calibrated to Fig. 12's three classes: "The first class ... take
    /// about 75µs. The second class ... around 150µs. The last group ...
    /// averaging 292µs", with `in`/`rd` slightly above their non-blocking
    /// versions and `in` above `rd` (Section 4). These costs drive the
    /// engine's virtual clock; `fig12_local_ops` measures our real
    /// execution cost separately.
    pub fn cost_us(self) -> u64 {
        use Opcode::*;
        match self {
            // Class 1 (~75µs): plain pushes of known values, no computation.
            Loc => 75,
            Aid => 72,
            Numnbrs => 78,
            Pushc => 70,
            Pop | Copy | Swap | Clear => 62,
            Add | Sub | And | Or | Not | Eq | Inc | Mod | Halve => 68,
            Makeloc => 92,
            Ceq | Clt | Cgt => 66,
            Halt => 50,
            Jumps | Rjump | Rjumpc => 64,
            Getvar | Setvar => 90,
            Rand => 95,
            PutLed => 80,
            // Class 2 (~150µs): extra memory traffic or small computation.
            Randnbr => 150,
            Getnbr => 155,
            Pushrt => 148,
            Pusht => 142,
            Pushn => 152,
            Pushcl => 138,
            Pushloc => 150,
            Regrxn => 162,
            Deregrxn => 158,
            // Class 3 (~292µs): tuple-space operations.
            Out => 268,
            Inp => 278,
            Rdp => 272,
            In => 308,
            Rd => 296,
            Tcount => 285,
            // Long-running / split-phase: local CPU cost before the engine
            // takes over (radio protocol or ADC latency dominates).
            Sense => 210,
            Sleep | Wait => 85,
            Smove | Wmove | Sclone | Wclone => 180,
            Rout | Rinp | Rrdp => 175,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fixed_opcode_bytes() {
        // Fig. 7's published opcode column.
        assert_eq!(Opcode::Loc as u8, 0x01);
        assert_eq!(Opcode::Wait as u8, 0x0b);
        assert_eq!(Opcode::Smove as u8, 0x1a);
        assert_eq!(Opcode::Wclone as u8, 0x1d);
        assert_eq!(Opcode::Getnbr as u8, 0x20);
        assert_eq!(Opcode::Out as u8, 0x33);
        assert_eq!(Opcode::Inp as u8, 0x34);
        assert_eq!(Opcode::Rd as u8, 0x37);
        assert_eq!(Opcode::Rout as u8, 0x39);
        assert_eq!(Opcode::Rinp as u8, 0x3a);
        assert_eq!(Opcode::Regrxn as u8, 0x3e);
    }

    #[test]
    fn byte_roundtrip_all() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_byte(op as u8).unwrap(), op);
        }
        assert!(Opcode::from_byte(0xEE).is_err());
    }

    /// The decoder before the opcode table, kept as an oracle: a linear
    /// scan of `Opcode::ALL` and a slice copy of the operands.
    fn decode_by_scan(code: &[u8], pc: u16) -> Result<(Instruction, usize), VmError> {
        let idx = pc as usize;
        if idx >= code.len() {
            return Err(VmError::PcOutOfRange {
                pc,
                code_len: code.len(),
            });
        }
        let op = Opcode::ALL
            .iter()
            .copied()
            .find(|op| *op as u8 == code[idx])
            .ok_or(VmError::InvalidOpcode(code[idx]))?;
        let len = op.encoded_len();
        if idx + len > code.len() {
            return Err(VmError::TruncatedOperand(op.mnemonic()));
        }
        let mut operand = [0u8; 3];
        operand[..len - 1].copy_from_slice(&code[idx + 1..idx + len]);
        Ok((Instruction { op, operand }, len))
    }

    #[test]
    fn table_decode_agrees_with_a_scan_for_every_byte() {
        for b in 0..=u8::MAX {
            let scanned = Opcode::ALL.iter().copied().find(|op| *op as u8 == b);
            assert_eq!(Opcode::from_byte(b).ok(), scanned, "byte {b:#04x}");
            if scanned.is_none() {
                assert_eq!(Opcode::from_byte(b), Err(VmError::InvalidOpcode(b)));
            }
            // Every truncation of the byte followed by three operand bytes,
            // decoded at the start and after a one-byte prefix.
            let code = [Opcode::Halt as u8, b, 0xA5, 0x5A, 0xC3];
            for end in 0..=code.len() {
                for pc in [0, 1] {
                    assert_eq!(
                        Instruction::decode(&code[..end], pc),
                        decode_by_scan(&code[..end], pc),
                        "byte {b:#04x}, pc {pc}, code {:?}",
                        &code[..end]
                    );
                }
            }
        }
    }

    #[test]
    fn energy_classes_partition_the_isa() {
        let mut sensing = 0;
        let mut radio = 0;
        for op in Opcode::ALL {
            match op.energy_class() {
                EnergyClass::Sensing => sensing += 1,
                EnergyClass::Radio => radio += 1,
                EnergyClass::Cpu => {}
            }
        }
        assert_eq!(sensing, 1, "only sense touches the sensor board");
        assert_eq!(radio, 7, "4 migration + 3 remote tuple-space ops");
        assert_eq!(Opcode::Sense.energy_class(), EnergyClass::Sensing);
        assert_eq!(Opcode::Smove.energy_class(), EnergyClass::Radio);
        assert_eq!(Opcode::Out.energy_class(), EnergyClass::Cpu);
    }

    #[test]
    fn mnemonic_roundtrip_all() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Opcode::from_mnemonic("frobnicate"), None);
    }

    #[test]
    fn opcode_bytes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in Opcode::ALL {
            assert!(seen.insert(op as u8), "duplicate byte for {op}");
        }
    }

    #[test]
    fn most_instructions_are_one_byte() {
        // "With a few exceptions, an instruction is one byte" (Section 3.2).
        let single = Opcode::ALL
            .iter()
            .filter(|op| op.encoded_len() == 1)
            .count();
        let multi = Opcode::ALL.len() - single;
        assert!(
            single > multi * 3,
            "{single} single-byte vs {multi} multi-byte"
        );
    }

    #[test]
    fn decode_simple_and_immediate() {
        let code = [Opcode::Pushcl as u8, 0x2C, 0x01, Opcode::Halt as u8];
        let (ins, len) = Instruction::decode(&code, 0).unwrap();
        assert_eq!(ins.op, Opcode::Pushcl);
        assert_eq!(len, 3);
        assert_eq!(ins.operand_i16(), 300);
        let (ins, len) = Instruction::decode(&code, 3).unwrap();
        assert_eq!(ins.op, Opcode::Halt);
        assert_eq!(len, 1);
    }

    #[test]
    fn decode_pushloc_signed_pair() {
        let code = [Opcode::Pushloc as u8, 5u8, (-1i8) as u8];
        let (ins, _) = Instruction::decode(&code, 0).unwrap();
        assert_eq!(ins.operand_xy(), (5, -1));
    }

    #[test]
    fn decode_errors() {
        assert!(matches!(
            Instruction::decode(&[], 0),
            Err(VmError::PcOutOfRange { .. })
        ));
        assert!(matches!(
            Instruction::decode(&[0xEE], 0),
            Err(VmError::InvalidOpcode(0xEE))
        ));
        assert!(matches!(
            Instruction::decode(&[Opcode::Pushcl as u8, 1], 0),
            Err(VmError::TruncatedOperand("pushcl"))
        ));
    }

    #[test]
    fn cost_classes_match_figure_12() {
        // Class 1 around 75µs.
        for op in [Opcode::Loc, Opcode::Aid, Opcode::Numnbrs, Opcode::Pushc] {
            let c = op.cost_us();
            assert!((50..=100).contains(&c), "{op}: {c}");
        }
        // Class 2 around 150µs.
        for op in [
            Opcode::Randnbr,
            Opcode::Getnbr,
            Opcode::Pushn,
            Opcode::Pushcl,
            Opcode::Pushloc,
            Opcode::Regrxn,
            Opcode::Deregrxn,
        ] {
            let c = op.cost_us();
            assert!((130..=170).contains(&c), "{op}: {c}");
        }
        // Class 3 around 292µs; blocking > non-blocking; in > rd.
        for op in [
            Opcode::Out,
            Opcode::Inp,
            Opcode::Rdp,
            Opcode::In,
            Opcode::Rd,
            Opcode::Tcount,
        ] {
            let c = op.cost_us();
            assert!((250..=320).contains(&c), "{op}: {c}");
        }
        assert!(Opcode::In.cost_us() > Opcode::Inp.cost_us());
        assert!(Opcode::Rd.cost_us() > Opcode::Rdp.cost_us());
        assert!(Opcode::In.cost_us() > Opcode::Rd.cost_us());
        assert!(Opcode::Out.cost_us() < Opcode::In.cost_us());
    }

    #[test]
    fn all_local_costs_within_paper_envelope() {
        // "Local operations take between 60-440µs" (Section 4) — allow halt
        // (50µs) as the one sub-60 housekeeping case.
        for op in Opcode::ALL {
            let c = op.cost_us();
            assert!((50..=440).contains(&c), "{op} cost {c} outside envelope");
        }
    }
}
