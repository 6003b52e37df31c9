//! # adn-backend — ADN compiler back-ends
//!
//! Paper §5.2: "the compiler translates optimized IR into platform-native
//! code". The prototype's one backend emitted Rust mRPC modules; the vision
//! includes eBPF and P4. This crate provides four:
//!
//! * [`native`] — the production path of the prototype: IR compiled into an
//!   in-process engine ([`native::NativeEngine`]) that executes per-RPC with
//!   no marshalling, standing in for the generated-and-compiled Rust module.
//! * [`jit`] — the compiled execution tiers on top of `adn-jit`: element
//!   plans lowered to a linear op IR and run either direct-threaded or as
//!   x86-64 template-JITed machine code ([`jit::JitEngine`]), with the
//!   tree-walker retained as the differential oracle and escape hatch.
//!   [`jit::compile_engine`] is the production entry point.
//! * [`rust_codegen`] — the literal artifact the paper's prototype shipped:
//!   Rust source text for an mRPC engine, generated from the IR (used for
//!   inspection and the lines-of-code comparison, experiment E3).
//! * [`ebpf`] — a kernel-offload simulator: compiles elements under the
//!   kernel's restrictions (forward-only jumps, bounded programs, no
//!   floats, map state) to encoded eBPF programs. Elements that don't fit
//!   the model are rejected at compile time — exactly the portability gate
//!   of paper §2.
//! * [`isa`] — the genuine eBPF instruction encoding those programs use:
//!   64-bit instruction words, the assembler, a disassembler, and the
//!   interpreter over the real ABI. `adn-verifier`'s abstract interpreter
//!   proves the same encoded programs the interpreter runs.
//! * [`p4`] — a programmable-switch simulator: match-action stages over
//!   header fields only, with the ~200-byte header window constraint.
//!
//! Shared runtime pieces:
//!
//! * [`udf_impl`] — software implementations of the built-in UDFs
//!   (compression, encryption, hashing, …). `random()`/`now()` come from a
//!   seeded, per-engine source so experiments are reproducible.
//! * [`state`] — tabular element state with snapshot/restore and
//!   partition/merge, the substrate for live migration and scale-out.
//! * [`eval`] — the reference IR-expression evaluator.

pub mod adapters;
pub mod ebpf;
pub mod eval;
pub mod isa;
pub mod jit;
pub mod native;
pub mod p4;
pub mod plan;
pub mod rust_codegen;
pub mod state;
pub mod udf_impl;

use adn_ir::ElementIr;

/// Processor classes an element might be placed on (paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// In the RPC library, a sidecar process, or any general CPU context.
    Software,
    /// In-kernel eBPF.
    Ebpf,
    /// SmartNIC core (runs software engines under a cycle budget).
    SmartNic,
    /// P4 programmable switch.
    Switch,
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Platform::Software => "software",
            Platform::Ebpf => "ebpf",
            Platform::SmartNic => "smartnic",
            Platform::Switch => "switch",
        };
        f.write_str(s)
    }
}

/// Checks whether `element` can execute on `platform`, returning the reason
/// when it cannot. This is the feasibility gate the controller's placement
/// search uses.
pub fn supports(element: &ElementIr, platform: Platform) -> Result<(), String> {
    match platform {
        Platform::Software => Ok(()),
        Platform::SmartNic => {
            // SmartNIC cores run engine code; only UDFs flagged as
            // smartnic-portable are available there.
            for stmt in element.all_stmts() {
                for expr in stmt.expressions() {
                    for udf in expr.udf_names() {
                        let sig = adn_dsl::udf::lookup(&udf)
                            .ok_or_else(|| format!("unknown UDF {udf}"))?;
                        if !sig.portability.smartnic {
                            return Err(format!("UDF {udf} cannot run on a SmartNIC"));
                        }
                    }
                }
            }
            Ok(())
        }
        Platform::Ebpf => ebpf::compile(element).map(|_| ()),
        Platform::Switch => p4::compile(element).map(|_| ()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_dsl::parser::parse_element;
    use adn_dsl::typecheck::check_element;
    use adn_rpc::schema::RpcSchema;
    use adn_rpc::value::ValueType;

    fn lower(src: &str) -> ElementIr {
        let req = RpcSchema::builder()
            .field("object_id", ValueType::U64)
            .field("payload", ValueType::Bytes)
            .build()
            .unwrap();
        let resp = RpcSchema::builder()
            .field("ok", ValueType::Bool)
            .build()
            .unwrap();
        let checked = check_element(&parse_element(src).unwrap(), &req, &resp).unwrap();
        adn_ir::lower_element(&checked, &[], &req, &resp).unwrap()
    }

    #[test]
    fn software_supports_everything() {
        let e = lower(
            "element C() { on request { SET payload = compress(input.payload); SELECT * FROM input; } }",
        );
        assert!(supports(&e, Platform::Software).is_ok());
        assert!(supports(&e, Platform::SmartNic).is_ok());
    }

    #[test]
    fn switch_rejects_compression() {
        let e = lower(
            "element C() { on request { SET payload = compress(input.payload); SELECT * FROM input; } }",
        );
        assert!(supports(&e, Platform::Switch).is_err());
        assert!(supports(&e, Platform::Ebpf).is_err());
    }

    #[test]
    fn numeric_filter_fits_everywhere() {
        // Computed predicates fit eBPF; the switch needs plain
        // field-vs-constant matches.
        let computed = lower(
            "element F() { on request { DROP WHERE input.object_id % 2 == 1; SELECT * FROM input; } }",
        );
        assert!(supports(&computed, Platform::Software).is_ok());
        assert!(
            supports(&computed, Platform::Ebpf).is_ok(),
            "{:?}",
            supports(&computed, Platform::Ebpf)
        );
        assert!(supports(&computed, Platform::Switch).is_err());

        let exact = lower(
            "element F() { on request { DROP WHERE input.object_id == 13; SELECT * FROM input; } }",
        );
        assert!(
            supports(&exact, Platform::Switch).is_ok(),
            "{:?}",
            supports(&exact, Platform::Switch)
        );
    }
}
