//! Real eBPF ISA: 64-bit instruction words, assembler, disassembler,
//! interpreter.
//!
//! This module gives the eBPF-sim backend a genuine BPF instruction
//! encoding. Every instruction is the kernel's 64-bit `bpf_insn` layout —
//! `opcode` (8 bits), `dst_reg`/`src_reg` (4 bits each), `off` (signed 16)
//! and `imm` (signed 32) — covering the ALU64/ALU32, JMP/JMP32, LDX/STX/ST
//! classes plus `CALL`, `EXIT` and the two-slot `lddw` form (including the
//! `src_reg = BPF_PSEUDO_MAP_FD` map-handle variant real loaders emit).
//!
//! Two translations live here:
//!
//! * `assemble` (crate-private) lowers the compiler's pseudo-instructions
//!   ([`crate::ebpf`]) onto the real ISA under the execution model the
//!   kernel actually uses: message fields become `ldx`/`stx` through a
//!   **context pointer** (saved into callee-saved `r9` by the prologue),
//!   helpers become `call`s with arguments in `r1..r5` and the result in
//!   `r0` (caller-saved registers are spilled to the `r10` stack frame
//!   around each call, guided by a liveness analysis), and map lookups
//!   become the canonical `call map_lookup_elem; if r0 == 0 goto miss;
//!   ldx` null-checked pointer pattern. The pseudo-instructions exist only
//!   as its input.
//! * [`disasm`] renders any instruction stream in the familiar
//!   `r0 = r1`, `if r2 > 7 goto +5`, `exit` assembly style.
//!
//! The abstract-interpretation verifier (`adn_verifier::absint`) and the
//! interpreter ([`execute_encoded`]) both operate on this encoding, and
//! it is the only form a compiled element takes — so what is verified is
//! what runs.

use crate::ebpf::{
    AluOp, CmpOp, EbpfMaps, EbpfVerdict, Insn, RouteDecision, RET_ABORT, RET_DROP, RET_FORWARD,
};
use crate::udf_impl::UdfRuntime;
use adn_rpc::value::{Value, ValueType};

// ---------------------------------------------------------------------------
// Opcode encoding (kernel uapi values)
// ---------------------------------------------------------------------------

/// Instruction classes (low 3 opcode bits).
pub const BPF_LD: u8 = 0x00;
pub const BPF_LDX: u8 = 0x01;
pub const BPF_ST: u8 = 0x02;
pub const BPF_STX: u8 = 0x03;
pub const BPF_ALU: u8 = 0x04;
pub const BPF_JMP: u8 = 0x05;
pub const BPF_JMP32: u8 = 0x06;
pub const BPF_ALU64: u8 = 0x07;

/// Access sizes for LD/LDX/ST/STX (opcode bits 3–4).
pub const BPF_W: u8 = 0x00;
pub const BPF_H: u8 = 0x08;
pub const BPF_B: u8 = 0x10;
pub const BPF_DW: u8 = 0x18;

/// Addressing modes (opcode bits 5–7) — only IMM (lddw) and MEM are used.
pub const BPF_IMM: u8 = 0x00;
pub const BPF_MEM: u8 = 0x60;

/// ALU/JMP source operand: immediate (`K`) or register (`X`) — opcode bit 3.
pub const BPF_K: u8 = 0x00;
pub const BPF_X: u8 = 0x08;

/// ALU operations (opcode bits 4–7).
pub const BPF_ADD: u8 = 0x00;
pub const BPF_SUB: u8 = 0x10;
pub const BPF_MUL: u8 = 0x20;
pub const BPF_DIV: u8 = 0x30;
pub const BPF_OR: u8 = 0x40;
pub const BPF_AND: u8 = 0x50;
pub const BPF_LSH: u8 = 0x60;
pub const BPF_RSH: u8 = 0x70;
pub const BPF_NEG: u8 = 0x80;
pub const BPF_MOD: u8 = 0x90;
pub const BPF_XOR: u8 = 0xa0;
pub const BPF_MOV: u8 = 0xb0;
pub const BPF_ARSH: u8 = 0xc0;
pub const BPF_END: u8 = 0xd0;

/// JMP operations (opcode bits 4–7).
pub const BPF_JA: u8 = 0x00;
pub const BPF_JEQ: u8 = 0x10;
pub const BPF_JGT: u8 = 0x20;
pub const BPF_JGE: u8 = 0x30;
pub const BPF_JSET: u8 = 0x40;
pub const BPF_JNE: u8 = 0x50;
pub const BPF_JSGT: u8 = 0x60;
pub const BPF_JSGE: u8 = 0x70;
pub const BPF_CALL: u8 = 0x80;
pub const BPF_EXIT: u8 = 0x90;
pub const BPF_JLT: u8 = 0xa0;
pub const BPF_JLE: u8 = 0xb0;
pub const BPF_JSLT: u8 = 0xc0;
pub const BPF_JSLE: u8 = 0xd0;

/// `src_reg` marker on `lddw`: `imm` is a map handle, not a constant.
pub const BPF_PSEUDO_MAP_FD: u8 = 1;

/// `off` marker on BPF_DIV/BPF_MOD selecting the signed variant (cpu v4
/// `sdiv`/`smod` encoding).
pub const OFF_SDIV: i16 = 1;

// ---------------------------------------------------------------------------
// Helper IDs (this platform's helper set; map/time/random use kernel IDs)
// ---------------------------------------------------------------------------

pub const HELPER_MAP_LOOKUP: i32 = 1; // bpf_map_lookup_elem
pub const HELPER_MAP_UPDATE: i32 = 2; // bpf_map_update_elem
pub const HELPER_MAP_DELETE: i32 = 3; // bpf_map_delete_elem
pub const HELPER_KTIME_GET_NS: i32 = 5; // bpf_ktime_get_ns → logical clock
pub const HELPER_GET_PRANDOM: i32 = 7; // bpf_get_prandom_u32 → uniform u64
/// Platform-specific helpers (message-field access beyond scalar loads).
pub const HELPER_HASH_FIELD: i32 = 0x1001;
pub const HELPER_LEN_FIELD: i32 = 0x1002;
pub const HELPER_ROUTE: i32 = 0x1003;

/// Register the prologue saves the context pointer into (callee-saved, as
/// real programs do: `r9 = r1`).
pub const CTX_REG: u8 = 9;
/// Frame pointer (read-only, points at the top of the 512-byte stack).
pub const FP_REG: u8 = 10;
/// Stack frame size, mirroring the kernel's limit.
pub const STACK_SIZE: u16 = 512;
/// Every message field occupies one 8-byte context slot.
pub const CTX_SLOT_BYTES: i32 = 8;

/// Stack slot (offset from `r10`) a caller-saved register spills to.
pub const fn spill_slot(reg: u8) -> i16 {
    -8 * (reg as i16 + 1)
}
/// Scratch slot holding a map key passed by pointer.
pub const KEY_SLOT: i16 = -56;
/// Scratch slot holding a map value passed by pointer.
pub const VAL_SLOT: i16 = -64;

// ---------------------------------------------------------------------------
// Instruction words
// ---------------------------------------------------------------------------

/// One 64-bit eBPF instruction slot (`lddw` uses two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BpfInsn {
    pub opcode: u8,
    pub dst: u8,
    pub src: u8,
    pub off: i16,
    pub imm: i32,
}

impl BpfInsn {
    /// Packs into the kernel's little-endian 64-bit word layout.
    pub fn encode(self) -> u64 {
        (self.opcode as u64)
            | (((self.dst & 0x0f) as u64 | (((self.src & 0x0f) as u64) << 4)) << 8)
            | ((self.off as u16 as u64) << 16)
            | ((self.imm as u32 as u64) << 32)
    }

    /// Unpacks a 64-bit word.
    pub fn decode(word: u64) -> Self {
        BpfInsn {
            opcode: (word & 0xff) as u8,
            dst: ((word >> 8) & 0x0f) as u8,
            src: ((word >> 12) & 0x0f) as u8,
            off: ((word >> 16) & 0xffff) as u16 as i16,
            imm: ((word >> 32) & 0xffff_ffff) as u32 as i32,
        }
    }

    pub fn class(self) -> u8 {
        self.opcode & 0x07
    }

    /// For ALU/JMP classes: the operation bits.
    pub fn op(self) -> u8 {
        self.opcode & 0xf0
    }

    /// For ALU/JMP classes: true when the source operand is a register.
    pub fn is_reg_src(self) -> bool {
        self.opcode & 0x08 != 0
    }

    /// For LD/LDX/ST/STX classes: access size in bytes.
    pub fn size_bytes(self) -> u8 {
        match self.opcode & 0x18 {
            BPF_W => 4,
            BPF_H => 2,
            BPF_B => 1,
            _ => 8,
        }
    }

    /// Whether this slot begins a two-slot `lddw`.
    pub fn is_lddw(self) -> bool {
        self.opcode == BPF_LD | BPF_IMM | BPF_DW
    }
}

/// Encodes a stream to raw 64-bit words.
pub fn encode_words(insns: &[BpfInsn]) -> Vec<u64> {
    insns.iter().map(|i| i.encode()).collect()
}

/// Decodes raw 64-bit words back to instruction slots.
pub fn decode_words(words: &[u64]) -> Vec<BpfInsn> {
    words.iter().map(|w| BpfInsn::decode(*w)).collect()
}

// --- constructors ----------------------------------------------------------

pub fn alu64_reg(op: u8, dst: u8, src: u8) -> BpfInsn {
    BpfInsn {
        opcode: BPF_ALU64 | BPF_X | op,
        dst,
        src,
        off: 0,
        imm: 0,
    }
}

pub fn alu64_imm(op: u8, dst: u8, imm: i32) -> BpfInsn {
    BpfInsn {
        opcode: BPF_ALU64 | BPF_K | op,
        dst,
        src: 0,
        off: 0,
        imm,
    }
}

pub fn alu32_reg(op: u8, dst: u8, src: u8) -> BpfInsn {
    BpfInsn {
        opcode: BPF_ALU | BPF_X | op,
        dst,
        src,
        off: 0,
        imm: 0,
    }
}

pub fn alu32_imm(op: u8, dst: u8, imm: i32) -> BpfInsn {
    BpfInsn {
        opcode: BPF_ALU | BPF_K | op,
        dst,
        src: 0,
        off: 0,
        imm,
    }
}

pub fn mov64_reg(dst: u8, src: u8) -> BpfInsn {
    alu64_reg(BPF_MOV, dst, src)
}

pub fn mov64_imm(dst: u8, imm: i32) -> BpfInsn {
    alu64_imm(BPF_MOV, dst, imm)
}

pub fn jmp_reg(op: u8, dst: u8, src: u8, off: i16) -> BpfInsn {
    BpfInsn {
        opcode: BPF_JMP | BPF_X | op,
        dst,
        src,
        off,
        imm: 0,
    }
}

pub fn jmp_imm(op: u8, dst: u8, imm: i32, off: i16) -> BpfInsn {
    BpfInsn {
        opcode: BPF_JMP | BPF_K | op,
        dst,
        src: 0,
        off,
        imm,
    }
}

pub fn ja(off: i16) -> BpfInsn {
    BpfInsn {
        opcode: BPF_JMP | BPF_JA,
        dst: 0,
        src: 0,
        off,
        imm: 0,
    }
}

pub fn ldx(size: u8, dst: u8, src: u8, off: i16) -> BpfInsn {
    BpfInsn {
        opcode: BPF_LDX | BPF_MEM | size,
        dst,
        src,
        off,
        imm: 0,
    }
}

pub fn stx(size: u8, dst: u8, src: u8, off: i16) -> BpfInsn {
    BpfInsn {
        opcode: BPF_STX | BPF_MEM | size,
        dst,
        src,
        off,
        imm: 0,
    }
}

pub fn st(size: u8, dst: u8, off: i16, imm: i32) -> BpfInsn {
    BpfInsn {
        opcode: BPF_ST | BPF_MEM | size,
        dst,
        src: 0,
        off,
        imm,
    }
}

pub fn call(helper: i32) -> BpfInsn {
    BpfInsn {
        opcode: BPF_JMP | BPF_CALL,
        dst: 0,
        src: 0,
        off: 0,
        imm: helper,
    }
}

pub fn exit() -> BpfInsn {
    BpfInsn {
        opcode: BPF_JMP | BPF_EXIT,
        dst: 0,
        src: 0,
        off: 0,
        imm: 0,
    }
}

/// Two-slot 64-bit immediate load.
pub fn lddw(dst: u8, imm: u64) -> [BpfInsn; 2] {
    lddw_with_src(dst, 0, imm)
}

/// Two-slot map-handle load (`src_reg = BPF_PSEUDO_MAP_FD`).
pub fn lddw_map(dst: u8, map: u32) -> [BpfInsn; 2] {
    lddw_with_src(dst, BPF_PSEUDO_MAP_FD, map as u64)
}

fn lddw_with_src(dst: u8, src: u8, imm: u64) -> [BpfInsn; 2] {
    [
        BpfInsn {
            opcode: BPF_LD | BPF_IMM | BPF_DW,
            dst,
            src,
            off: 0,
            imm: imm as u32 as i32,
        },
        BpfInsn {
            opcode: 0,
            dst: 0,
            src: 0,
            off: 0,
            imm: (imm >> 32) as u32 as i32,
        },
    ]
}

/// Reads the 64-bit immediate of an `lddw` pair.
pub fn lddw_imm(lo: BpfInsn, hi: BpfInsn) -> u64 {
    (lo.imm as u32 as u64) | ((hi.imm as u32 as u64) << 32)
}

// ---------------------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------------------

fn alu_op_str(op: u8) -> &'static str {
    match op {
        BPF_ADD => "+=",
        BPF_SUB => "-=",
        BPF_MUL => "*=",
        BPF_DIV => "/=",
        BPF_OR => "|=",
        BPF_AND => "&=",
        BPF_LSH => "<<=",
        BPF_RSH => ">>=",
        BPF_MOD => "%=",
        BPF_XOR => "^=",
        BPF_MOV => "=",
        BPF_ARSH => "s>>=",
        _ => "?=",
    }
}

fn jmp_op_str(op: u8) -> &'static str {
    match op {
        BPF_JEQ => "==",
        BPF_JGT => ">",
        BPF_JGE => ">=",
        BPF_JSET => "&",
        BPF_JNE => "!=",
        BPF_JSGT => "s>",
        BPF_JSGE => "s>=",
        BPF_JLT => "<",
        BPF_JLE => "<=",
        BPF_JSLT => "s<",
        BPF_JSLE => "s<=",
        _ => "?",
    }
}

fn helper_name(id: i32) -> &'static str {
    match id {
        HELPER_MAP_LOOKUP => "map_lookup_elem",
        HELPER_MAP_UPDATE => "map_update_elem",
        HELPER_MAP_DELETE => "map_delete_elem",
        HELPER_KTIME_GET_NS => "ktime_get_ns",
        HELPER_GET_PRANDOM => "get_prandom_u64",
        HELPER_HASH_FIELD => "adn_hash_field",
        HELPER_LEN_FIELD => "adn_len_field",
        HELPER_ROUTE => "adn_route",
        _ => "unknown_helper",
    }
}

/// Disassembles one slot (given the next slot for `lddw`), returning the
/// text and how many slots it consumed.
pub fn disasm_one(insn: BpfInsn, next: Option<BpfInsn>) -> (String, usize) {
    if insn.is_lddw() {
        if let Some(hi) = next {
            let imm = lddw_imm(insn, hi);
            let text = if insn.src == BPF_PSEUDO_MAP_FD {
                format!("r{} = map[{}] ll", insn.dst, imm)
            } else {
                format!("r{} = {:#x} ll", insn.dst, imm)
            };
            return (text, 2);
        }
        return ("<truncated lddw>".into(), 1);
    }
    let text = match insn.class() {
        BPF_ALU64 | BPF_ALU => {
            let w = if insn.class() == BPF_ALU { "w" } else { "r" };
            match insn.op() {
                BPF_NEG => format!("{w}{} = -{w}{}", insn.dst, insn.dst),
                BPF_END => format!("{w}{} = bswap{}", insn.dst, insn.imm),
                op => {
                    let signed = (op == BPF_DIV || op == BPF_MOD) && insn.off == OFF_SDIV;
                    let sym = if signed {
                        if op == BPF_DIV {
                            "s/="
                        } else {
                            "s%="
                        }
                    } else {
                        alu_op_str(op)
                    };
                    if insn.is_reg_src() {
                        format!("{w}{} {sym} {w}{}", insn.dst, insn.src)
                    } else {
                        format!("{w}{} {sym} {}", insn.dst, insn.imm)
                    }
                }
            }
        }
        BPF_JMP | BPF_JMP32 => match insn.op() {
            BPF_JA => format!("goto {:+}", insn.off),
            BPF_CALL => format!("call {}", helper_name(insn.imm)),
            BPF_EXIT => "exit".into(),
            op => {
                let w = if insn.class() == BPF_JMP32 { "w" } else { "r" };
                if insn.is_reg_src() {
                    format!(
                        "if {w}{} {} {w}{} goto {:+}",
                        insn.dst,
                        jmp_op_str(op),
                        insn.src,
                        insn.off
                    )
                } else {
                    format!(
                        "if {w}{} {} {} goto {:+}",
                        insn.dst,
                        jmp_op_str(op),
                        insn.imm,
                        insn.off
                    )
                }
            }
        },
        BPF_LDX => format!(
            "r{} = *(u{} *)(r{} {:+})",
            insn.dst,
            insn.size_bytes() as u16 * 8,
            insn.src,
            insn.off
        ),
        BPF_STX => format!(
            "*(u{} *)(r{} {:+}) = r{}",
            insn.size_bytes() as u16 * 8,
            insn.dst,
            insn.off,
            insn.src
        ),
        BPF_ST => format!(
            "*(u{} *)(r{} {:+}) = {}",
            insn.size_bytes() as u16 * 8,
            insn.dst,
            insn.off,
            insn.imm
        ),
        _ => format!("<invalid opcode {:#04x}>", insn.opcode),
    };
    (text, 1)
}

/// Disassembles a stream, one numbered line per instruction.
pub fn disasm(insns: &[BpfInsn]) -> String {
    let mut out = String::new();
    let mut pc = 0;
    while pc < insns.len() {
        let (text, used) = disasm_one(insns[pc], insns.get(pc + 1).copied());
        out.push_str(&format!("{pc:4}: {text}\n"));
        pc += used;
    }
    out
}

// ---------------------------------------------------------------------------
// Assembler: compiler pseudo-instructions → real ISA
// ---------------------------------------------------------------------------

/// Registers a pseudo-instruction reads (`use` set, per successor edge:
/// uses are identical on both edges).
fn insn_uses(insn: &Insn) -> Vec<u8> {
    match insn {
        Insn::LdImm { .. }
        | Insn::LdField { .. }
        | Insn::HashField { .. }
        | Insn::LenField { .. }
        | Insn::Rand { .. }
        | Insn::Now { .. }
        | Insn::Jmp { .. } => vec![],
        Insn::StField { src, .. } => vec![*src],
        Insn::Mov { src, .. } => vec![*src],
        Insn::Alu { dst, src, .. } => vec![*dst, *src],
        Insn::Neg { dst } | Insn::LogicalNot { dst } => vec![*dst],
        Insn::JmpIf { a, b, .. } => vec![*a, *b],
        Insn::MapLookup { key, .. } => vec![*key],
        Insn::MapUpdate { key, value, .. } => vec![*key, *value],
        Insn::MapDelete { key, .. } => vec![*key],
        Insn::Route { key_hash } => vec![*key_hash],
        Insn::Ret { verdict } => {
            if *verdict == RET_ABORT {
                vec![0]
            } else {
                vec![]
            }
        }
    }
}

/// Register a pseudo-instruction defines, if any (for `MapLookup` the def
/// happens only on the hit/fallthrough edge).
fn insn_def(insn: &Insn) -> Option<u8> {
    match insn {
        Insn::LdImm { dst, .. }
        | Insn::LdField { dst, .. }
        | Insn::Mov { dst, .. }
        | Insn::HashField { dst, .. }
        | Insn::LenField { dst, .. }
        | Insn::Rand { dst }
        | Insn::Now { dst }
        | Insn::MapLookup { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// Live-register sets before each pseudo-instruction. Forward-only jumps
/// make one reverse pass exact (every successor index is greater).
fn liveness(prog: &[Insn]) -> Vec<u16> {
    let n = prog.len();
    let mut live = vec![0u16; n + 1];
    for i in (0..n).rev() {
        let insn = &prog[i];
        let def_mask = insn_def(insn).map(|r| 1u16 << r).unwrap_or(0);
        let mut out: u16 = 0;
        match insn {
            Insn::Ret { .. } => {}
            Insn::Jmp { off } => out = live[(i + 1 + *off as usize).min(n)],
            Insn::JmpIf { off, .. } => {
                out = live[i + 1] | live[(i + 1 + *off as usize).min(n)];
            }
            Insn::MapLookup { miss_off, .. } => {
                // dst is defined on the fallthrough (hit) edge only.
                out = (live[i + 1] & !def_mask) | live[(i + 1 + *miss_off as usize).min(n)];
                live[i] = out;
                for r in insn_uses(insn) {
                    live[i] |= 1 << r;
                }
                continue;
            }
            _ => out = live[i + 1],
        }
        live[i] = out & !def_mask;
        for r in insn_uses(insn) {
            live[i] |= 1 << r;
        }
    }
    live
}

/// Caller-saved registers (`r0..r5`) that must survive a helper call at
/// pseudo-instruction `i`: live on some successor edge and not defined by the
/// call itself.
fn spill_set(prog: &[Insn], live: &[u16], i: usize) -> Vec<u8> {
    let insn = &prog[i];
    let n = prog.len();
    let mut out_live: u16 = match insn {
        Insn::MapLookup { miss_off, .. } => {
            live.get(i + 1).copied().unwrap_or(0)
                | live
                    .get((i + 1 + *miss_off as usize).min(n))
                    .copied()
                    .unwrap_or(0)
        }
        _ => live.get(i + 1).copied().unwrap_or(0),
    };
    if let Some(d) = insn_def(insn) {
        out_live &= !(1 << d);
    }
    (0u8..6).filter(|r| out_live & (1 << r) != 0).collect()
}

fn alu_opcode(op: AluOp) -> (u8, i16) {
    match op {
        AluOp::Add => (BPF_ADD, 0),
        AluOp::Sub => (BPF_SUB, 0),
        AluOp::Mul => (BPF_MUL, 0),
        AluOp::DivU => (BPF_DIV, 0),
        AluOp::ModU => (BPF_MOD, 0),
        AluOp::DivS => (BPF_DIV, OFF_SDIV),
        AluOp::ModS => (BPF_MOD, OFF_SDIV),
        AluOp::And => (BPF_AND, 0),
        AluOp::Or => (BPF_OR, 0),
    }
}

fn cmp_opcode(cmp: CmpOp, signed: bool) -> u8 {
    match (cmp, signed) {
        (CmpOp::Eq, _) => BPF_JEQ,
        (CmpOp::Ne, _) => BPF_JNE,
        (CmpOp::Lt, false) => BPF_JLT,
        (CmpOp::Lt, true) => BPF_JSLT,
        (CmpOp::Le, false) => BPF_JLE,
        (CmpOp::Le, true) => BPF_JSLE,
        (CmpOp::Gt, false) => BPF_JGT,
        (CmpOp::Gt, true) => BPF_JSGT,
        (CmpOp::Ge, false) => BPF_JGE,
        (CmpOp::Ge, true) => BPF_JSGE,
    }
}

/// Encoded slot count for one pseudo-instruction given its spill count.
fn seq_len(insn: &Insn, spills: usize) -> usize {
    let s = spills;
    match insn {
        Insn::LdImm { .. } => 2,
        Insn::LdField { .. }
        | Insn::StField { .. }
        | Insn::Mov { .. }
        | Insn::Alu { .. }
        | Insn::Neg { .. }
        | Insn::Jmp { .. }
        | Insn::JmpIf { .. } => 1,
        Insn::LogicalNot { .. } => 4,
        Insn::HashField { .. } | Insn::LenField { .. } => 2 * s + 3,
        Insn::Rand { .. } | Insn::Now { .. } => 2 * s + 2,
        Insn::Route { .. } => 2 * s + 2,
        Insn::MapLookup { .. } => 3 * s + 10,
        Insn::MapUpdate { .. } => 2 * s + 9,
        Insn::MapDelete { .. } => 2 * s + 6,
        Insn::Ret { verdict } => {
            if *verdict == RET_ABORT {
                3
            } else {
                2
            }
        }
    }
}

/// Assembles a compiled pseudo-instruction program onto the real ISA.
/// Fails when the program uses registers the real encoding reserves (`r9`
/// context, `r10` frame).
pub(crate) fn assemble(prog: &[Insn]) -> Result<Vec<BpfInsn>, String> {
    let n = prog.len();
    for (i, insn) in prog.iter().enumerate() {
        let mut regs = insn_uses(insn);
        regs.extend(insn_def(insn));
        if let Some(r) = regs.iter().find(|r| **r >= CTX_REG) {
            return Err(format!(
                "insn {i}: register r{r} is reserved in the real ISA encoding"
            ));
        }
    }

    let live = liveness(prog);
    let spills: Vec<Vec<u8>> = (0..n)
        .map(|i| match prog[i] {
            Insn::HashField { .. }
            | Insn::LenField { .. }
            | Insn::Rand { .. }
            | Insn::Now { .. }
            | Insn::Route { .. }
            | Insn::MapLookup { .. }
            | Insn::MapUpdate { .. }
            | Insn::MapDelete { .. } => spill_set(prog, &live, i),
            _ => vec![],
        })
        .collect();

    // Layout pass: slot each pseudo-instruction starts at (prologue = 1).
    let mut starts = Vec::with_capacity(n + 1);
    let mut at = 1usize;
    for (i, insn) in prog.iter().enumerate() {
        starts.push(at);
        at += seq_len(insn, spills[i].len());
    }
    starts.push(at);

    // Encoded branch offset from the slot holding the jump to the start of
    // pseudo-instruction `target`.
    let enc_off = |jump_slot: usize, target: usize| -> Result<i16, String> {
        let t = starts[target.min(n)];
        let delta = t as i64 - (jump_slot as i64 + 1);
        i16::try_from(delta).map_err(|_| format!("branch offset {delta} exceeds i16"))
    };

    let mut out: Vec<BpfInsn> = Vec::with_capacity(at);
    out.push(mov64_reg(CTX_REG, 1)); // prologue: save ctx pointer

    for (i, insn) in prog.iter().enumerate() {
        debug_assert_eq!(out.len(), starts[i], "layout drift at pseudo-insn {i}");
        let sp = &spills[i];
        let emit_spills = |out: &mut Vec<BpfInsn>| {
            for &r in sp {
                out.push(stx(BPF_DW, FP_REG, r, spill_slot(r)));
            }
        };
        let emit_restores = |out: &mut Vec<BpfInsn>| {
            for &r in sp {
                out.push(ldx(BPF_DW, r, FP_REG, spill_slot(r)));
            }
        };
        match insn {
            Insn::LdImm { dst, imm } => out.extend(lddw(*dst, *imm)),
            Insn::LdField { dst, field } => out.push(ldx(BPF_DW, *dst, CTX_REG, *field as i16 * 8)),
            Insn::StField { field, src } => out.push(stx(BPF_DW, CTX_REG, *src, *field as i16 * 8)),
            Insn::Mov { dst, src } => out.push(mov64_reg(*dst, *src)),
            Insn::Alu { op, dst, src } => {
                let (opc, off) = alu_opcode(*op);
                let mut i = alu64_reg(opc, *dst, *src);
                i.off = off;
                out.push(i);
            }
            Insn::Neg { dst } => out.push(BpfInsn {
                opcode: BPF_ALU64 | BPF_NEG,
                dst: *dst,
                src: 0,
                off: 0,
                imm: 0,
            }),
            Insn::LogicalNot { dst } => {
                out.push(jmp_imm(BPF_JEQ, *dst, 0, 2));
                out.push(mov64_imm(*dst, 0));
                out.push(ja(1));
                out.push(mov64_imm(*dst, 1));
            }
            Insn::Jmp { off } => {
                let o = enc_off(out.len(), i + 1 + *off as usize)?;
                out.push(ja(o));
            }
            Insn::JmpIf {
                cmp,
                signed,
                a,
                b,
                off,
            } => {
                let o = enc_off(out.len(), i + 1 + *off as usize)?;
                out.push(jmp_reg(cmp_opcode(*cmp, *signed), *a, *b, o));
            }
            Insn::HashField { dst, field } | Insn::LenField { dst, field } => {
                let helper = if matches!(insn, Insn::HashField { .. }) {
                    HELPER_HASH_FIELD
                } else {
                    HELPER_LEN_FIELD
                };
                emit_spills(&mut out);
                out.push(mov64_imm(1, *field as i32));
                out.push(call(helper));
                out.push(mov64_reg(*dst, 0));
                emit_restores(&mut out);
            }
            Insn::Rand { dst } | Insn::Now { dst } => {
                let helper = if matches!(insn, Insn::Rand { .. }) {
                    HELPER_GET_PRANDOM
                } else {
                    HELPER_KTIME_GET_NS
                };
                emit_spills(&mut out);
                out.push(call(helper));
                out.push(mov64_reg(*dst, 0));
                emit_restores(&mut out);
            }
            Insn::Route { key_hash } => {
                emit_spills(&mut out);
                out.push(mov64_reg(1, *key_hash));
                out.push(call(HELPER_ROUTE));
                emit_restores(&mut out);
            }
            Insn::MapLookup {
                map,
                key,
                dst,
                miss_off,
            } => {
                let s = sp.len() as i16;
                emit_spills(&mut out);
                out.push(stx(BPF_DW, FP_REG, *key, KEY_SLOT));
                out.extend(lddw_map(1, *map as u32));
                out.push(mov64_reg(2, FP_REG));
                out.push(alu64_imm(BPF_ADD, 2, KEY_SLOT as i32));
                out.push(call(HELPER_MAP_LOOKUP));
                // miss: skip ldx + restores + hit-ja
                out.push(jmp_imm(BPF_JEQ, 0, 0, s + 2));
                out.push(ldx(BPF_DW, *dst, 0, 0));
                emit_restores(&mut out);
                out.push(ja(s + 1)); // over the miss trampoline
                emit_restores(&mut out);
                let o = enc_off(out.len(), i + 1 + *miss_off as usize)?;
                out.push(ja(o));
            }
            Insn::MapUpdate { map, key, value } => {
                emit_spills(&mut out);
                out.push(stx(BPF_DW, FP_REG, *key, KEY_SLOT));
                out.push(stx(BPF_DW, FP_REG, *value, VAL_SLOT));
                out.extend(lddw_map(1, *map as u32));
                out.push(mov64_reg(2, FP_REG));
                out.push(alu64_imm(BPF_ADD, 2, KEY_SLOT as i32));
                out.push(mov64_reg(3, FP_REG));
                out.push(alu64_imm(BPF_ADD, 3, VAL_SLOT as i32));
                out.push(call(HELPER_MAP_UPDATE));
                emit_restores(&mut out);
            }
            Insn::MapDelete { map, key } => {
                emit_spills(&mut out);
                out.push(stx(BPF_DW, FP_REG, *key, KEY_SLOT));
                out.extend(lddw_map(1, *map as u32));
                out.push(mov64_reg(2, FP_REG));
                out.push(alu64_imm(BPF_ADD, 2, KEY_SLOT as i32));
                out.push(call(HELPER_MAP_DELETE));
                emit_restores(&mut out);
            }
            Insn::Ret { verdict } => match *verdict {
                RET_FORWARD => {
                    out.push(mov64_imm(0, 0));
                    out.push(exit());
                }
                RET_DROP => {
                    out.push(mov64_imm(0, 1));
                    out.push(exit());
                }
                _ => {
                    out.push(alu64_imm(BPF_LSH, 0, 8));
                    out.push(alu64_imm(BPF_OR, 0, RET_ABORT as i32));
                    out.push(exit());
                }
            },
        }
    }
    debug_assert_eq!(out.len(), at, "layout drift at program end");
    Ok(out)
}

// ---------------------------------------------------------------------------
// Interpreter over the real encoding
// ---------------------------------------------------------------------------

/// Base virtual addresses for the interpreter's (and verifier's) memory
/// regions. Pointers are ordinary 64-bit register values tagged by region.
pub const STACK_BASE: u64 = 0x1000_0000_0000;
pub const CTX_BASE: u64 = 0x2000_0000_0000;
pub const MAPVAL_BASE: u64 = 0x3000_0000_0000;
pub const MAP_BASE: u64 = 0x4000_0000_0000;

/// Deterministic junk a helper call writes into the caller-saved argument
/// registers `r1..r5`, so programs that wrongly rely on them surviving a
/// call fail loudly.
pub const CLOBBER: u64 = 0xdead_beef_0000_0000;

/// Execution budget: the encoding permits backward jumps, so interpretation
/// of unverified streams is fuel-limited rather than structurally bounded.
const FUEL: usize = 1 << 20;

struct Mem<'a> {
    stack: [u8; STACK_SIZE as usize],
    fields: &'a mut [Value],
    maps: &'a mut EbpfMaps,
    /// `(map, key)` the live map-value pointer refers to, if any.
    mapval: Option<(usize, u64)>,
}

impl Mem<'_> {
    fn read(&self, addr: u64, size: u8) -> Result<u64, String> {
        let size = size as u64;
        if (STACK_BASE..STACK_BASE + STACK_SIZE as u64).contains(&addr) {
            let off = (addr - STACK_BASE) as usize;
            if off + size as usize > STACK_SIZE as usize {
                return Err(format!("stack read of {size} bytes at {off} out of bounds"));
            }
            let mut v = 0u64;
            for (k, b) in self.stack[off..off + size as usize].iter().enumerate() {
                v |= (*b as u64) << (8 * k);
            }
            return Ok(v);
        }
        if (CTX_BASE..CTX_BASE + 8 * self.fields.len() as u64).contains(&addr) {
            let off = addr - CTX_BASE;
            if size != 8 || !off.is_multiple_of(8) {
                return Err("context loads must be 8-byte aligned doublewords".into());
            }
            return Ok(match &self.fields[(off / 8) as usize] {
                Value::U64(v) => *v,
                Value::I64(v) => *v as u64,
                Value::Bool(b) => *b as u64,
                _ => 0,
            });
        }
        if (MAPVAL_BASE..MAPVAL_BASE + 8).contains(&addr) {
            let (m, key) = self
                .mapval
                .ok_or("load through a stale map-value pointer")?;
            let off = (addr - MAPVAL_BASE) as usize;
            if off + size as usize > 8 {
                return Err("map-value read out of bounds".into());
            }
            let bytes = self.maps.maps[m]
                .get(&key)
                .copied()
                .unwrap_or(0)
                .to_le_bytes();
            let mut v = 0u64;
            for (k, b) in bytes[off..off + size as usize].iter().enumerate() {
                v |= (*b as u64) << (8 * k);
            }
            return Ok(v);
        }
        Err(format!("invalid memory read at {addr:#x}"))
    }

    fn write(&mut self, addr: u64, val: u64, size: u8) -> Result<(), String> {
        let size = size as usize;
        if (STACK_BASE..STACK_BASE + STACK_SIZE as u64).contains(&addr) {
            let off = (addr - STACK_BASE) as usize;
            if off + size > STACK_SIZE as usize {
                return Err(format!(
                    "stack write of {size} bytes at {off} out of bounds"
                ));
            }
            for k in 0..size {
                self.stack[off + k] = (val >> (8 * k)) as u8;
            }
            return Ok(());
        }
        if (CTX_BASE..CTX_BASE + 8 * self.fields.len() as u64).contains(&addr) {
            let off = addr - CTX_BASE;
            if size != 8 || !off.is_multiple_of(8) {
                return Err("context stores must be 8-byte aligned doublewords".into());
            }
            let slot = &mut self.fields[(off / 8) as usize];
            *slot = match slot.value_type() {
                ValueType::U64 => Value::U64(val),
                ValueType::I64 => Value::I64(val as i64),
                ValueType::Bool => Value::Bool(val != 0),
                _ => slot.clone(),
            };
            return Ok(());
        }
        if (MAPVAL_BASE..MAPVAL_BASE + 8).contains(&addr) {
            let (m, key) = self
                .mapval
                .ok_or("store through a stale map-value pointer")?;
            let off = (addr - MAPVAL_BASE) as usize;
            if off + size > 8 {
                return Err("map-value write out of bounds".into());
            }
            let mut bytes = self.maps.maps[m]
                .get(&key)
                .copied()
                .unwrap_or(0)
                .to_le_bytes();
            for k in 0..size {
                bytes[off + k] = (val >> (8 * k)) as u8;
            }
            self.maps.maps[m].insert(key, u64::from_le_bytes(bytes));
            return Ok(());
        }
        Err(format!("invalid memory write at {addr:#x}"))
    }
}

/// Executes an encoded stream under the real ABI: `r1` = context pointer,
/// `r10` = frame pointer, helpers via `call`, verdict in `r0`'s low byte
/// with the abort code in bits 8..40. This is the only eBPF interpreter:
/// the adapter runs compiled elements through it, and the conformance
/// corpus pins its semantics. Unverified streams get fuel-limited,
/// error-checked execution instead of undefined behavior.
pub fn execute_encoded(
    insns: &[BpfInsn],
    fields: &mut [Value],
    maps: &mut EbpfMaps,
    udf: &mut UdfRuntime,
    route: &mut RouteDecision,
) -> Result<EbpfVerdict, String> {
    let mut regs = [0u64; 11];
    regs[1] = CTX_BASE;
    regs[FP_REG as usize] = STACK_BASE + STACK_SIZE as u64;
    let mut mem = Mem {
        stack: [0; STACK_SIZE as usize],
        fields,
        maps,
        mapval: None,
    };
    let mut pc = 0usize;
    let mut fuel = FUEL;

    while pc < insns.len() {
        fuel -= 1;
        if fuel == 0 {
            return Err("execution fuel exhausted (runaway loop?)".into());
        }
        let insn = insns[pc];
        let dst = insn.dst as usize;
        let src = insn.src as usize;
        if dst >= 11 || src >= 11 {
            return Err(format!("pc {pc}: register out of range"));
        }
        match insn.class() {
            BPF_LD => {
                if !insn.is_lddw() {
                    return Err(format!("pc {pc}: unsupported LD form"));
                }
                let hi = *insns
                    .get(pc + 1)
                    .ok_or_else(|| format!("pc {pc}: truncated lddw"))?;
                let imm = lddw_imm(insn, hi);
                regs[dst] = if insn.src == BPF_PSEUDO_MAP_FD {
                    if imm as usize >= mem.maps.maps.len() {
                        return Err(format!("pc {pc}: map {imm} out of range"));
                    }
                    MAP_BASE + imm
                } else {
                    imm
                };
                pc += 2;
                continue;
            }
            BPF_LDX => {
                let addr = regs[src].wrapping_add(insn.off as i64 as u64);
                regs[dst] = mem.read(addr, insn.size_bytes())?;
            }
            BPF_ST | BPF_STX => {
                let addr = regs[dst].wrapping_add(insn.off as i64 as u64);
                let val = if insn.class() == BPF_STX {
                    regs[src]
                } else {
                    insn.imm as i64 as u64
                };
                mem.write(addr, val, insn.size_bytes())?;
            }
            BPF_ALU64 | BPF_ALU => {
                if dst == FP_REG as usize {
                    return Err(format!("pc {pc}: r10 is read-only"));
                }
                let is64 = insn.class() == BPF_ALU64;
                let a = regs[dst];
                let b = if insn.is_reg_src() {
                    regs[src]
                } else {
                    insn.imm as i64 as u64
                };
                let signed = insn.off == OFF_SDIV;
                let r64 = |a: u64, b: u64| -> Result<u64, String> {
                    Ok(match insn.op() {
                        BPF_ADD => a.wrapping_add(b),
                        BPF_SUB => a.wrapping_sub(b),
                        BPF_MUL => a.wrapping_mul(b),
                        BPF_DIV if signed => {
                            let (x, y) = (a as i64, b as i64);
                            if y == 0 {
                                0
                            } else {
                                x.wrapping_div(y) as u64
                            }
                        }
                        BPF_DIV => a.checked_div(b).unwrap_or(0),
                        BPF_MOD if signed => {
                            let (x, y) = (a as i64, b as i64);
                            if y == 0 {
                                a
                            } else {
                                x.wrapping_rem(y) as u64
                            }
                        }
                        BPF_MOD => {
                            if b == 0 {
                                a
                            } else {
                                a % b
                            }
                        }
                        BPF_AND => a & b,
                        BPF_OR => a | b,
                        BPF_XOR => a ^ b,
                        BPF_LSH => a.wrapping_shl(b as u32 & 63),
                        BPF_RSH => a.wrapping_shr(b as u32 & 63),
                        BPF_ARSH => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
                        BPF_MOV => b,
                        BPF_NEG => (a as i64).wrapping_neg() as u64,
                        op => return Err(format!("pc {pc}: unsupported ALU op {op:#04x}")),
                    })
                };
                regs[dst] = if is64 {
                    r64(a, b)?
                } else {
                    // ALU32: operate on the low halves, zero-extend.
                    let (a, b) = (a as u32 as u64, b as u32 as u64);
                    match insn.op() {
                        BPF_LSH => (a as u32).wrapping_shl(b as u32 & 31) as u64,
                        BPF_RSH => (a as u32).wrapping_shr(b as u32 & 31) as u64,
                        BPF_ARSH => ((a as u32 as i32).wrapping_shr(b as u32 & 31)) as u32 as u64,
                        BPF_NEG => (a as u32 as i32).wrapping_neg() as u32 as u64,
                        _ => r64(a, b)? as u32 as u64,
                    }
                };
            }
            BPF_JMP | BPF_JMP32 => match insn.op() {
                BPF_JA => {
                    pc = (pc as i64 + 1 + insn.off as i64) as usize;
                    continue;
                }
                BPF_EXIT => {
                    return Ok(match (regs[0] & 0xff) as u8 {
                        RET_FORWARD => EbpfVerdict::Forward,
                        RET_DROP => EbpfVerdict::Drop,
                        RET_ABORT => EbpfVerdict::Abort {
                            code: (regs[0] >> 8) as u32,
                        },
                        v => return Err(format!("pc {pc}: invalid verdict {v}")),
                    });
                }
                BPF_CALL => {
                    call_helper(pc, insn.imm, &mut regs, &mut mem, udf, route)?;
                    for (r, slot) in regs.iter_mut().enumerate().take(6).skip(1) {
                        *slot = CLOBBER | r as u64;
                    }
                }
                op => {
                    let (mut a, mut b) = (
                        regs[dst],
                        if insn.is_reg_src() {
                            regs[src]
                        } else {
                            insn.imm as i64 as u64
                        },
                    );
                    if insn.class() == BPF_JMP32 {
                        a = a as u32 as u64;
                        b = b as u32 as u64;
                    }
                    let (sa, sb) = if insn.class() == BPF_JMP32 {
                        (a as u32 as i32 as i64, b as u32 as i32 as i64)
                    } else {
                        (a as i64, b as i64)
                    };
                    let taken = match op {
                        BPF_JEQ => a == b,
                        BPF_JNE => a != b,
                        BPF_JGT => a > b,
                        BPF_JGE => a >= b,
                        BPF_JLT => a < b,
                        BPF_JLE => a <= b,
                        BPF_JSET => a & b != 0,
                        BPF_JSGT => sa > sb,
                        BPF_JSGE => sa >= sb,
                        BPF_JSLT => sa < sb,
                        BPF_JSLE => sa <= sb,
                        op => return Err(format!("pc {pc}: unsupported jump op {op:#04x}")),
                    };
                    if taken {
                        pc = (pc as i64 + 1 + insn.off as i64) as usize;
                        continue;
                    }
                }
            },
            c => return Err(format!("pc {pc}: unsupported class {c:#04x}")),
        }
        pc += 1;
    }
    Err("program fell off the end without exit".into())
}

fn call_helper(
    pc: usize,
    id: i32,
    regs: &mut [u64; 11],
    mem: &mut Mem<'_>,
    udf: &mut UdfRuntime,
    route: &mut RouteDecision,
) -> Result<(), String> {
    let map_of = |ptr: u64| -> Result<usize, String> {
        let idx = ptr.wrapping_sub(MAP_BASE) as usize;
        if ptr < MAP_BASE || idx >= mem.maps.maps.len() {
            return Err(format!("pc {pc}: r1 is not a map pointer"));
        }
        Ok(idx)
    };
    let field_of = |idx: u64, n: usize| -> Result<usize, String> {
        if idx as usize >= n {
            return Err(format!("pc {pc}: field index {idx} out of range"));
        }
        Ok(idx as usize)
    };
    regs[0] = match id {
        HELPER_MAP_LOOKUP => {
            let m = map_of(regs[1])?;
            let key = mem.read(regs[2], 8)?;
            if mem.maps.maps[m].contains_key(&key) {
                mem.mapval = Some((m, key));
                MAPVAL_BASE
            } else {
                0
            }
        }
        HELPER_MAP_UPDATE => {
            let m = map_of(regs[1])?;
            let key = mem.read(regs[2], 8)?;
            let val = mem.read(regs[3], 8)?;
            mem.maps.maps[m].insert(key, val);
            0
        }
        HELPER_MAP_DELETE => {
            let m = map_of(regs[1])?;
            let key = mem.read(regs[2], 8)?;
            mem.maps.maps[m].remove(&key);
            0
        }
        HELPER_KTIME_GET_NS => udf.now(),
        HELPER_GET_PRANDOM => udf.random_u64(),
        HELPER_HASH_FIELD => {
            let f = field_of(regs[1], mem.fields.len())?;
            mem.fields[f].stable_hash()
        }
        HELPER_LEN_FIELD => {
            let f = field_of(regs[1], mem.fields.len())?;
            match &mem.fields[f] {
                Value::Str(s) => s.len() as u64,
                Value::Bytes(b) => b.len() as u64,
                _ => 0,
            }
        }
        HELPER_ROUTE => {
            route.key_hash = Some(regs[1]);
            0
        }
        other => return Err(format!("pc {pc}: unknown helper {other}")),
    };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip_exhaustive_fields() {
        let samples = [
            BpfInsn {
                opcode: BPF_ALU64 | BPF_X | BPF_ADD,
                dst: 3,
                src: 7,
                off: -2,
                imm: -1,
            },
            mov64_imm(0, i32::MIN),
            ja(i16::MIN),
            call(HELPER_HASH_FIELD),
            exit(),
            ldx(BPF_W, 5, 9, 4096),
            st(BPF_B, 10, -511, 255),
        ];
        for insn in samples {
            assert_eq!(BpfInsn::decode(insn.encode()), insn);
        }
    }

    #[test]
    fn lddw_two_slot_roundtrip() {
        for v in [0u64, 1, u64::MAX, 0xdead_beef_cafe_babe] {
            let [lo, hi] = lddw(4, v);
            assert!(lo.is_lddw());
            assert_eq!(lddw_imm(lo, hi), v);
        }
        let [lo, hi] = lddw_map(1, 3);
        assert_eq!(lo.src, BPF_PSEUDO_MAP_FD);
        assert_eq!(lddw_imm(lo, hi), 3);
    }

    /// Assembles `prog` and runs it on the encoded interpreter, returning
    /// the verdict, the route decision, and the mutated fields and maps.
    fn run(
        prog: &[Insn],
        mut fields: Vec<Value>,
        mut maps: EbpfMaps,
        seed: u64,
    ) -> (EbpfVerdict, RouteDecision, Vec<Value>, EbpfMaps) {
        let mut udf = UdfRuntime::new(seed);
        let mut route = RouteDecision::default();
        let asm = assemble(prog).unwrap();
        let v = execute_encoded(&asm, &mut fields, &mut maps, &mut udf, &mut route).unwrap();
        (v, route, fields, maps)
    }

    fn one_map(entries: &[(u64, u64)]) -> EbpfMaps {
        EbpfMaps {
            maps: vec![entries.iter().copied().collect()],
        }
    }

    #[test]
    fn lookup_emits_null_checked_pointer_pattern() {
        let prog = vec![
            Insn::LdField { dst: 1, field: 0 },
            Insn::MapLookup {
                map: 0,
                key: 1,
                dst: 2,
                miss_off: 0,
            },
            Insn::Ret {
                verdict: RET_FORWARD,
            },
        ];
        let text = disasm(&assemble(&prog).unwrap());
        assert!(text.contains("call map_lookup_elem"), "{text}");
        assert!(text.contains("if r0 == 0 goto"), "{text}");
        assert!(text.contains("*(u64 *)(r0 +0)"), "{text}");
    }

    #[test]
    fn abort_encodes_verdict_in_low_byte() {
        let prog = vec![
            Insn::LdImm { dst: 0, imm: 7 },
            Insn::Ret { verdict: RET_ABORT },
        ];
        let text = disasm(&assemble(&prog).unwrap());
        assert!(text.contains("r0 <<= 8"), "{text}");
        assert!(text.contains("r0 |= 2"), "{text}");
        let (v, ..) = run(&prog, vec![], EbpfMaps::default(), 0);
        assert_eq!(v, EbpfVerdict::Abort { code: 7 });
    }

    // The two tests below pin the encoded execution of hand-written
    // programs to the meaning of their pseudo-instructions (the semantics
    // the legacy B-code defined) as concrete verdicts, fields and maps.

    #[test]
    fn encoded_execution_matches_legacy_on_stateful_program() {
        // Keyed counter: lookup-or-forward, bump, write back, store to ctx.
        let counter = vec![
            Insn::LdField { dst: 1, field: 0 },
            Insn::MapLookup {
                map: 0,
                key: 1,
                dst: 2,
                miss_off: 4,
            },
            Insn::LdImm { dst: 3, imm: 1 },
            Insn::Alu {
                op: AluOp::Add,
                dst: 2,
                src: 3,
            },
            Insn::MapUpdate {
                map: 0,
                key: 1,
                value: 2,
            },
            Insn::StField { field: 1, src: 1 },
            Insn::Ret {
                verdict: RET_FORWARD,
            },
        ];
        // Miss (key 5 absent): straight to `Ret`, nothing written.
        let (v, _, fields, maps) = run(
            &counter,
            vec![Value::U64(5), Value::U64(0)],
            one_map(&[]),
            7,
        );
        assert_eq!(v, EbpfVerdict::Forward);
        assert_eq!(fields, vec![Value::U64(5), Value::U64(0)]);
        assert_eq!(maps.maps, one_map(&[]).maps);

        // Seeding 5 → 9 in the same run makes the lookup hit: the counter
        // is bumped to 10 and the key is stored to field 1.
        let mut seeded = vec![
            Insn::LdField { dst: 1, field: 0 },
            Insn::LdImm { dst: 2, imm: 9 },
            Insn::MapUpdate {
                map: 0,
                key: 1,
                value: 2,
            },
        ];
        seeded.extend(counter);
        let (v, _, fields, maps) =
            run(&seeded, vec![Value::U64(5), Value::U64(0)], one_map(&[]), 7);
        assert_eq!(v, EbpfVerdict::Forward);
        assert_eq!(fields, vec![Value::U64(5), Value::U64(5)]);
        assert_eq!(maps.maps, one_map(&[(5, 10)]).maps);

        // Lookup hit rewrites the value in place; a miss deletes and drops.
        let hit_or_delete = vec![
            Insn::LdField { dst: 1, field: 0 },
            Insn::MapLookup {
                map: 0,
                key: 1,
                dst: 2,
                miss_off: 2,
            },
            Insn::MapUpdate {
                map: 0,
                key: 1,
                value: 2,
            },
            Insn::Ret {
                verdict: RET_FORWARD,
            },
            Insn::MapDelete { map: 0, key: 1 },
            Insn::Ret { verdict: RET_DROP },
        ];
        for (key, want) in [(5, EbpfVerdict::Forward), (6, EbpfVerdict::Drop)] {
            let (v, _, _, maps) = run(&hit_or_delete, vec![Value::U64(key)], one_map(&[(5, 3)]), 0);
            assert_eq!(v, want, "key {key}");
            assert_eq!(maps.maps, one_map(&[(5, 3)]).maps, "key {key}");
        }
    }

    #[test]
    fn encoded_execution_matches_legacy_on_helpers_and_aborts() {
        // `rand + now < threshold`: a zero threshold never branches (drop);
        // `u64::MAX` branches unless the sum is all ones (abort 42). Both
        // arms first route by the hash of field 1.
        let prog = |threshold: u64| {
            vec![
                Insn::Rand { dst: 1 },
                Insn::Now { dst: 2 },
                Insn::Alu {
                    op: AluOp::Add,
                    dst: 1,
                    src: 2,
                },
                Insn::HashField { dst: 3, field: 1 },
                Insn::Route { key_hash: 3 },
                Insn::LdImm {
                    dst: 4,
                    imm: threshold,
                },
                Insn::JmpIf {
                    cmp: CmpOp::Lt,
                    signed: false,
                    a: 1,
                    b: 4,
                    off: 1,
                },
                Insn::Ret { verdict: RET_DROP },
                Insn::LdImm { dst: 0, imm: 42 },
                Insn::Ret { verdict: RET_ABORT },
            ]
        };
        let start = vec![Value::U64(1), Value::Bytes(vec![1, 2, 3])];
        for seed in 0..8 {
            for (threshold, want) in [
                (0, EbpfVerdict::Drop),
                (u64::MAX, EbpfVerdict::Abort { code: 42 }),
            ] {
                let (v, route, fields, _) =
                    run(&prog(threshold), start.clone(), EbpfMaps::default(), seed);
                assert_eq!(v, want, "seed {seed}");
                assert_eq!(route.key_hash, Some(start[1].stable_hash()));
                assert_eq!(fields, start);
            }
        }
    }

    #[test]
    fn encoded_execution_of_field_arithmetic() {
        // `field1 = field0 + 42` through the context pointer.
        let prog = vec![
            Insn::LdImm { dst: 1, imm: 42 },
            Insn::LdField { dst: 2, field: 0 },
            Insn::Alu {
                op: AluOp::Add,
                dst: 2,
                src: 1,
            },
            Insn::StField { field: 1, src: 2 },
            Insn::Ret {
                verdict: RET_FORWARD,
            },
        ];
        let (v, _, fields, _) = run(
            &prog,
            vec![Value::U64(8), Value::U64(0)],
            EbpfMaps::default(),
            0,
        );
        assert_eq!(v, EbpfVerdict::Forward);
        assert_eq!(fields, vec![Value::U64(8), Value::U64(50)]);
    }

    #[test]
    fn encoded_mod_by_zero_leaves_dst_unchanged() {
        let prog = vec![
            Insn::LdImm { dst: 1, imm: 41 },
            Insn::LdImm { dst: 2, imm: 0 },
            Insn::Alu {
                op: AluOp::ModU,
                dst: 1,
                src: 2,
            },
            Insn::StField { field: 0, src: 1 },
            Insn::Ret {
                verdict: RET_FORWARD,
            },
        ];
        let (_, _, fields, _) = run(&prog, vec![Value::U64(0)], EbpfMaps::default(), 0);
        assert_eq!(fields[0], Value::U64(41));
    }

    #[test]
    fn encoded_interpreter_is_fuel_limited_on_backward_jumps() {
        // `goto -1` spins forever; the interpreter must bail, not hang.
        let insns = vec![mov64_reg(CTX_REG, 1), ja(-1)];
        let mut fields = vec![Value::U64(0)];
        let mut maps = EbpfMaps::default();
        let mut udf = UdfRuntime::new(0);
        let mut route = RouteDecision::default();
        let err =
            execute_encoded(&insns, &mut fields, &mut maps, &mut udf, &mut route).unwrap_err();
        assert!(err.contains("fuel"), "{err}");
    }

    #[test]
    fn disasm_is_stable() {
        let insns = vec![
            mov64_reg(9, 1),
            ldx(BPF_DW, 2, 9, 8),
            alu64_imm(BPF_ADD, 2, 5),
            jmp_reg(BPF_JGT, 2, 3, 1),
            exit(),
        ];
        let text = disasm(&insns);
        assert_eq!(
            text,
            "   0: r9 = r1\n   1: r2 = *(u64 *)(r9 +8)\n   2: r2 += 5\n   3: if r2 > r3 goto +1\n   4: exit\n"
        );
    }
}
