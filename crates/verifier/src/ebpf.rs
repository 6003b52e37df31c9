//! Offload verifier for the eBPF backend.
//!
//! [`adn_backend::ebpf::compile`] decides whether an element fits the
//! kernel execution model at all and emits its encoded programs
//! ([`adn_backend::isa`]). This module is the *policy* layer on top: it
//! runs the abstract interpreter ([`crate::absint`]) over those exact
//! programs and answers "should this program be trusted in the kernel at
//! this site?" under an operator-configurable [`EbpfPolicy`]. The audit
//! report carries the *proved* bounds — worst-case feasible-path length,
//! the exact stack high-water mark, worst-case helper calls — so the
//! placement solver can rank offload sites by verified cost.

use adn_backend::ebpf::compile;
use adn_backend::isa::{self, BpfInsn};
use adn_dsl::diag::Diagnostic;
use adn_ir::element::ElementIr;

use crate::absint::{self, AbsintOptions, OffloadVerdict};
use crate::codes;

/// What a site's kernel is willing to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EbpfPolicy {
    /// Longest permissible execution path, in encoded instructions on the
    /// longest feasible path.
    pub max_path_insns: usize,
    /// Stack budget in bytes, checked against the proved high-water mark.
    pub max_stack_bytes: usize,
    /// Context buffer size this site guarantees, when known. `None`
    /// leaves context accesses unchecked and surfaces the requirement in
    /// [`EbpfAuditReport::required_ctx_bytes`] instead.
    pub max_ctx_bytes: Option<usize>,
    /// Allow the `Rand` helper (fault injection).
    pub allow_rand: bool,
    /// Allow the `Now` helper (logical clocks).
    pub allow_now: bool,
    /// Allow map helpers (stateful elements).
    pub allow_map_helpers: bool,
    /// Allow the `Route` helper (in-kernel load balancing).
    pub allow_route: bool,
}

impl Default for EbpfPolicy {
    fn default() -> Self {
        Self {
            max_path_insns: adn_backend::ebpf::MAX_INSNS,
            max_stack_bytes: 512,
            max_ctx_bytes: None,
            allow_rand: true,
            allow_now: true,
            allow_map_helpers: true,
            allow_route: true,
        }
    }
}

/// Resource usage of a verified element, for placement cost models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EbpfAuditReport {
    /// Longest request-path length in instructions.
    pub request_path_insns: usize,
    /// Longest response-path length in instructions.
    pub response_path_insns: usize,
    /// Exact stack high-water mark across both programs.
    pub stack_bytes: usize,
    /// Worst-case helper calls on any feasible path, across both programs.
    pub helper_calls: usize,
    /// Context bytes the programs provably need. Zero when the policy
    /// pinned `max_ctx_bytes` (the accesses were checked instead).
    pub required_ctx_bytes: usize,
}

/// Helper-whitelist check over the distinct helper IDs the analysis saw.
fn check_helpers(
    element: &str,
    dir: &str,
    helpers: &[i32],
    policy: &EbpfPolicy,
) -> Option<Diagnostic> {
    for &h in helpers {
        let denied = match h {
            isa::HELPER_GET_PRANDOM if !policy.allow_rand => Some("rand"),
            isa::HELPER_KTIME_GET_NS if !policy.allow_now => Some("now"),
            isa::HELPER_MAP_LOOKUP | isa::HELPER_MAP_UPDATE | isa::HELPER_MAP_DELETE
                if !policy.allow_map_helpers =>
            {
                Some("map access")
            }
            isa::HELPER_ROUTE if !policy.allow_route => Some("route"),
            _ => None,
        };
        if let Some(helper) = denied {
            return Some(
                Diagnostic::error(
                    codes::EBPF_HELPER,
                    format!(
                        "element `{element}` {dir} program uses the `{helper}` helper, \
                         which this site's policy does not whitelist"
                    ),
                )
                .with_help("place the element on a native processor instead"),
            );
        }
    }
    None
}

/// Audits one direction's encoded program with the abstract interpreter.
/// `Ok((path, stack, helpers, required_ctx))` on success.
fn check_program(
    element: &str,
    dir: &str,
    prog: &[BpfInsn],
    num_maps: usize,
    policy: &EbpfPolicy,
) -> Result<(usize, usize, usize, usize), Vec<Diagnostic>> {
    let analysis = absint::analyze(
        prog,
        &AbsintOptions {
            num_maps,
            ctx_bytes: policy.max_ctx_bytes,
        },
    );

    let (cost, required_ctx) = match analysis.verdict {
        OffloadVerdict::Unsafe { diags } => {
            return Err(diags
                .into_iter()
                .map(|d| {
                    let mut out = Diagnostic::error(
                        d.code,
                        format!("element `{element}` {dir} program: {}", d.message),
                    );
                    out.span = d.span;
                    out.help = d.help;
                    out
                })
                .collect());
        }
        OffloadVerdict::Safe { cost } => (cost, 0),
        OffloadVerdict::Conditional {
            required_ctx_bytes,
            cost,
        } => (cost, required_ctx_bytes),
    };

    let mut diags = Vec::new();
    if cost.max_insns > policy.max_path_insns {
        diags.push(Diagnostic::error(
            codes::EBPF_UNBOUNDED,
            format!(
                "element `{element}` {dir} program's longest feasible path is \
                 {} instructions; the site allows {}",
                cost.max_insns, policy.max_path_insns
            ),
        ));
    }
    if cost.stack_bytes > policy.max_stack_bytes {
        diags.push(Diagnostic::error(
            codes::EBPF_STACK,
            format!(
                "element `{element}` {dir} program's proved stack high-water mark \
                 is {} bytes; the site allows {}",
                cost.stack_bytes, policy.max_stack_bytes
            ),
        ));
    }
    if let Some(d) = check_helpers(element, dir, &analysis.helpers, policy) {
        diags.push(d);
    }

    if diags.is_empty() {
        Ok((
            cost.max_insns,
            cost.stack_bytes,
            cost.helper_calls,
            required_ctx,
        ))
    } else {
        Err(diags)
    }
}

/// Verifies that `element` can be offloaded under `policy`. `Ok` carries
/// the proved resource bounds for cost models; `Err` carries the
/// diagnostics that explain why the element must stay on a native
/// processor.
pub fn audit_element(
    element: &ElementIr,
    policy: &EbpfPolicy,
) -> Result<EbpfAuditReport, Vec<Diagnostic>> {
    let compiled = match compile(element) {
        Ok(c) => c,
        Err(why) => {
            return Err(vec![Diagnostic::error(
                codes::EBPF_UNSUPPORTED,
                format!(
                    "element `{}` does not fit the kernel execution model: {why}",
                    element.name
                ),
            )]);
        }
    };

    let num_maps = compiled.map_inits.len();
    let mut diags = Vec::new();
    let mut report = EbpfAuditReport::default();

    for (dir, prog, path) in [
        ("request", &compiled.request, &mut report.request_path_insns),
        (
            "response",
            &compiled.response,
            &mut report.response_path_insns,
        ),
    ] {
        match check_program(&element.name, dir, prog, num_maps, policy) {
            Ok((insns, stack, helpers, required_ctx)) => {
                *path = insns;
                report.stack_bytes = report.stack_bytes.max(stack);
                report.helper_calls = report.helper_calls.max(helpers);
                report.required_ctx_bytes = report.required_ctx_bytes.max(required_ctx);
            }
            Err(d) => diags.extend(d),
        }
    }

    if diags.is_empty() {
        Ok(report)
    } else {
        Err(diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_dsl::{check_element, parser::parse_element};
    use adn_rpc::schema::RpcSchema;
    use adn_rpc::value::ValueType;

    fn schemas() -> (RpcSchema, RpcSchema) {
        let req = RpcSchema::builder()
            .field("user_id", ValueType::U64)
            .field("object_id", ValueType::U64)
            .field("payload", ValueType::Bytes)
            .build()
            .unwrap();
        let resp = RpcSchema::builder()
            .field("ok", ValueType::Bool)
            .build()
            .unwrap();
        (req, resp)
    }

    fn lower(src: &str) -> ElementIr {
        let (req, resp) = schemas();
        let checked = check_element(&parse_element(src).unwrap(), &req, &resp).unwrap();
        adn_ir::lower_element(&checked, &[], &req, &resp).unwrap()
    }

    const NUMERIC_ACL: &str = r#"
        element NumAcl() {
            state acl(user_id: u64 key, allowed: u64) init { (1, 1), (2, 0) };
            on request {
                SELECT * FROM input JOIN acl ON input.user_id == acl.user_id
                WHERE acl.allowed == 1;
            }
        }
    "#;

    #[test]
    fn offloadable_element_passes_default_policy() {
        let report = audit_element(&lower(NUMERIC_ACL), &EbpfPolicy::default()).unwrap();
        assert!(report.request_path_insns > 0);
        // The map lookup writes its key to the stack; the proved watermark
        // covers at least that slot.
        assert!(report.stack_bytes >= 8, "{report:?}");
        assert!(report.helper_calls >= 1, "{report:?}");
        // The element reads `user_id` (field 0), so it provably needs at
        // least one context slot.
        assert!(report.required_ctx_bytes >= 8, "{report:?}");
        // Response handler is empty: prologue, `r0 = 0`, `exit`.
        assert_eq!(report.response_path_insns, 3);
    }

    #[test]
    fn non_compilable_element_reports_unsupported() {
        let compress =
            "element C() { on request { SET payload = compress(input.payload); SELECT * FROM input; } }";
        let diags = audit_element(&lower(compress), &EbpfPolicy::default()).unwrap_err();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::EBPF_UNSUPPORTED);
    }

    #[test]
    fn map_helpers_can_be_denied_by_policy() {
        let policy = EbpfPolicy {
            allow_map_helpers: false,
            ..EbpfPolicy::default()
        };
        let diags = audit_element(&lower(NUMERIC_ACL), &policy).unwrap_err();
        assert!(
            diags.iter().any(|d| d.code == codes::EBPF_HELPER),
            "{diags:?}"
        );
    }

    #[test]
    fn rand_helper_denial_blocks_fault_injection() {
        let fault =
            "element F(p: f64 = 0.5) { on request { ABORT(3) WHERE random() < p; SELECT * FROM input; } }";
        let element = lower(fault);
        assert!(audit_element(&element, &EbpfPolicy::default()).is_ok());
        let policy = EbpfPolicy {
            allow_rand: false,
            ..EbpfPolicy::default()
        };
        let diags = audit_element(&element, &policy).unwrap_err();
        assert!(
            diags.iter().any(|d| d.code == codes::EBPF_HELPER),
            "{diags:?}"
        );
    }

    #[test]
    fn path_budget_is_enforced() {
        let policy = EbpfPolicy {
            max_path_insns: 2,
            ..EbpfPolicy::default()
        };
        let diags = audit_element(&lower(NUMERIC_ACL), &policy).unwrap_err();
        assert!(
            diags.iter().any(|d| d.code == codes::EBPF_UNBOUNDED),
            "{diags:?}"
        );
    }

    #[test]
    fn stack_budget_is_enforced() {
        let policy = EbpfPolicy {
            max_stack_bytes: 8,
            ..EbpfPolicy::default()
        };
        let diags = audit_element(&lower(NUMERIC_ACL), &policy).unwrap_err();
        assert!(
            diags.iter().any(|d| d.code == codes::EBPF_STACK),
            "{diags:?}"
        );
    }

    #[test]
    fn stateless_arithmetic_has_zero_proved_stack() {
        // Pure arithmetic writes several registers but never touches the
        // stack, so it fits even a 16-byte budget.
        let arith = "element A() { on request { SET object_id = input.object_id * 3 + input.user_id % 7; SELECT * FROM input; } }";
        let element = lower(arith);
        let tight = EbpfPolicy {
            max_stack_bytes: 16,
            ..EbpfPolicy::default()
        };
        let report = audit_element(&element, &tight).unwrap();
        assert_eq!(report.stack_bytes, 0, "{report:?}");
    }

    #[test]
    fn ctx_budget_rejects_wide_schemas() {
        // `object_id` is field 1, so the program provably needs 16 context
        // bytes; a site guaranteeing only 8 must reject it.
        let e = lower(
            "element F() { on request { DROP WHERE input.object_id == 13; SELECT * FROM input; } }",
        );
        let tiny = EbpfPolicy {
            max_ctx_bytes: Some(8),
            ..EbpfPolicy::default()
        };
        let diags = audit_element(&e, &tiny).unwrap_err();
        assert!(diags.iter().any(|d| d.code == codes::EBPF_OOB), "{diags:?}");

        let wide = EbpfPolicy {
            max_ctx_bytes: Some(512),
            ..EbpfPolicy::default()
        };
        let report = audit_element(&e, &wide).unwrap();
        assert_eq!(report.required_ctx_bytes, 0); // checked, not deferred
    }

    #[test]
    fn longest_path_bounds_branching_programs() {
        // Path length accounts for the longer arm of a branch, not the sum.
        let set = "element S() { on request { SET object_id = CASE WHEN input.user_id > 1 THEN 1 ELSE 2 END; SELECT * FROM input; } }";
        let report = audit_element(&lower(set), &EbpfPolicy::default()).unwrap();
        let compiled = compile(&lower(set)).unwrap();
        // Slot count over-counts lddw pairs, so it upper-bounds any path.
        assert!(report.request_path_insns <= compiled.request.len());
    }

    // The abstract interpreter is the one verifier, for compiled and
    // hand-built programs alike.

    fn analyze(prog: &[BpfInsn], num_maps: usize) -> OffloadVerdict {
        let opts = AbsintOptions {
            num_maps,
            ctx_bytes: Some(24),
        };
        absint::analyze(prog, &opts).verdict
    }

    fn rejected_with(prog: &[BpfInsn], num_maps: usize) -> Vec<&'static str> {
        match analyze(prog, num_maps) {
            OffloadVerdict::Unsafe { diags } => diags.iter().map(|d| d.code).collect(),
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn numeric_acl_compiles_and_verifies() {
        let types = |s: &RpcSchema| s.fields().iter().map(|f| f.ty).collect::<Vec<_>>();
        let (req, resp) = schemas();
        let compiled =
            adn_backend::ebpf::compile_for_schema(&lower(NUMERIC_ACL), &types(&req), &types(&resp))
                .unwrap();
        assert_eq!(compiled.map_inits[0].len(), 2);
        for prog in [&compiled.request, &compiled.response] {
            assert!(
                matches!(analyze(prog, 1), OffloadVerdict::Safe { .. }),
                "{}",
                isa::disasm(prog)
            );
        }
    }

    #[test]
    fn verifier_rejects_uninitialized_register_read() {
        let prog = [
            isa::mov64_reg(isa::CTX_REG, 1),
            isa::mov64_reg(2, 3),
            isa::mov64_imm(0, 0),
            isa::exit(),
        ];
        assert_eq!(rejected_with(&prog, 0), vec![codes::EBPF_UNINIT]);
    }

    #[test]
    fn verifier_rejects_fallthrough() {
        let prog = [isa::mov64_reg(isa::CTX_REG, 1), isa::mov64_imm(1, 0)];
        assert!(!rejected_with(&prog, 0).is_empty());
    }

    #[test]
    fn verifier_rejects_out_of_range_jump() {
        let prog = [isa::ja(99), isa::mov64_imm(0, 0), isa::exit()];
        assert_eq!(rejected_with(&prog, 0), vec![codes::EBPF_UNBOUNDED]);
    }

    #[test]
    fn verifier_rejects_maplookup_miss_path_using_dst() {
        // The lookup's destination is loaded on the hit edge only; the call
        // clobbered r2, so reading it after the join fails on the miss edge.
        let mut prog = vec![
            isa::mov64_reg(isa::CTX_REG, 1),
            isa::mov64_imm(1, 5),
            isa::stx(isa::BPF_DW, isa::FP_REG, 1, isa::KEY_SLOT),
        ];
        prog.extend(isa::lddw_map(1, 0));
        prog.extend([
            isa::mov64_reg(2, isa::FP_REG),
            isa::alu64_imm(isa::BPF_ADD, 2, isa::KEY_SLOT as i32),
            isa::call(isa::HELPER_MAP_LOOKUP),
            isa::jmp_imm(isa::BPF_JEQ, 0, 0, 1),
            isa::ldx(isa::BPF_DW, 2, 0, 0),
            isa::mov64_reg(3, 2),
            isa::mov64_imm(0, 0),
            isa::exit(),
        ]);
        assert_eq!(rejected_with(&prog, 1), vec![codes::EBPF_UNINIT]);
    }
}
