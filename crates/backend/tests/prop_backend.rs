//! Property tests for the backend:
//!
//! * **Reordering preserves semantics** (paper §3, Configuration 3): for
//!   random chains built from a pool of deterministic elements and random
//!   RPC streams, the optimized chain and the original chain produce
//!   identical verdicts and identical field values.
//! * **Commute soundness**: whenever the analysis says two elements
//!   commute, executing them in either order agrees on every message.
//! * **Codec safety**: compression and encryption roundtrip arbitrary
//!   payloads; decompress never panics on garbage.
//! * **eBPF vs. software equivalence**: for elements both backends accept,
//!   the encoded eBPF interpreter and the native engine agree.
//! * **ISA encoding**: every `BpfInsn` survives `decode(encode(_))`, and
//!   every compiled element program is proved safe by the abstract
//!   interpreter under its exact context size and runs without a fault.
//! * **Robustness**: arbitrary instruction words never panic or hang the
//!   abstract interpreter or the encoded interpreter.
//! * **Differential**: random arithmetic elements agree across the native
//!   engine and the encoded eBPF interpreter — verdicts and field values
//!   both. Expressions are bounded (no subtraction, divisors ≥ 1) so
//!   native checked arithmetic cannot error where eBPF would wrap; the
//!   wrap/trap divergence itself is documented and pinned in
//!   `tests/conformance.rs`.

use adn_backend::native::{compile_element, CompileOpts};
use adn_backend::udf_impl::{compress, decompress, xor_stream, UdfRuntime};
use adn_backend::{ebpf, isa, native};
use adn_dsl::parser::parse_element;
use adn_dsl::typecheck::check_element;
use adn_ir::{optimize, ChainIr, ElementIr, PassConfig};
use adn_rpc::engine::{Engine, Verdict};
use adn_rpc::message::RpcMessage;
use adn_rpc::schema::RpcSchema;
use adn_rpc::value::{Value, ValueType};
use adn_verifier::absint::{self, AbsintOptions, OffloadVerdict};
use proptest::prelude::*;
use std::sync::Arc;

fn schemas() -> (Arc<RpcSchema>, Arc<RpcSchema>) {
    (
        Arc::new(
            RpcSchema::builder()
                .field("object_id", ValueType::U64)
                .field("username", ValueType::Str)
                .field("payload", ValueType::Bytes)
                .build()
                .unwrap(),
        ),
        Arc::new(
            RpcSchema::builder()
                .field("ok", ValueType::Bool)
                .field("payload", ValueType::Bytes)
                .build()
                .unwrap(),
        ),
    )
}

fn lower(src: &str) -> ElementIr {
    let (req, resp) = schemas();
    let checked = check_element(&parse_element(src).unwrap(), &req, &resp).unwrap();
    adn_ir::lower_element(&checked, &[], &req, &resp).unwrap()
}

/// Pool of deterministic elements for chain-equivalence tests. (Elements
/// using `random()` are excluded: reordering around them is already barred
/// by the commute rule, and their RNG streams make byte-equality checks
/// meaningless.)
fn element_pool() -> Vec<ElementIr> {
    vec![
        lower(
            r#"element Acl() {
                state ac_tab(username: string key, permission: string) init {
                    ('alice', 'W'), ('bob', 'R'), ('carol', 'W')
                };
                on request {
                    SELECT * FROM input JOIN ac_tab ON input.username == ac_tab.username
                    WHERE ac_tab.permission == 'W';
                }
            }"#,
        ),
        lower(
            "element Compress() { on request { SET payload = compress(input.payload); SELECT * FROM input; } }",
        ),
        lower(
            "element Encrypt() { on request { SET payload = encrypt(input.payload, 'k1'); SELECT * FROM input; } }",
        ),
        lower(
            "element IdShift() { on request { SET object_id = input.object_id + 1; SELECT * FROM input; } }",
        ),
        lower(
            "element SmallDrop() { on request { DROP WHERE input.object_id % 7 == 0; SELECT * FROM input; } }",
        ),
        lower(
            "element HashRewrite() { on request { SELECT hash(input.username) AS object_id FROM input; } }",
        ),
        lower(
            r#"element Metrics() {
                state counts(username: string key, n: u64);
                on request {
                    INSERT INTO counts VALUES (input.username, 0);
                    UPDATE counts SET n = counts.n + 1 WHERE counts.username == input.username;
                    SELECT * FROM input;
                }
            }"#,
        ),
    ]
}

fn arb_message() -> impl Strategy<Value = (u64, String, Vec<u8>)> {
    (
        any::<u64>(),
        prop_oneof![
            Just("alice".to_owned()),
            Just("bob".to_owned()),
            Just("carol".to_owned()),
            Just("eve".to_owned()),
        ],
        proptest::collection::vec(any::<u8>(), 0..128),
    )
}

fn make_request(oid: u64, user: &str, payload: &[u8]) -> RpcMessage {
    let (req, _) = schemas();
    RpcMessage::request(1, 1, req)
        .with("object_id", oid)
        .with("username", user)
        .with("payload", payload.to_vec())
}

/// Runs a message through a chain of engines (short-circuiting).
fn run_chain(engines: &mut [native::NativeEngine], msg: &mut RpcMessage) -> Verdict {
    for e in engines.iter_mut() {
        match e.process(msg) {
            Verdict::Forward => continue,
            other => return other,
        }
    }
    Verdict::Forward
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optimized_chain_is_equivalent(
        picks in proptest::collection::vec(0usize..7, 1..5),
        msgs in proptest::collection::vec(arb_message(), 1..20),
    ) {
        let pool = element_pool();
        let elements: Vec<ElementIr> = picks.iter().map(|&i| pool[i].clone()).collect();
        let (req, resp) = schemas();
        let chain = ChainIr::new(elements.clone(), req, resp);
        let (optimized, _report) = optimize(chain, &PassConfig::default());

        let opts = CompileOpts { seed: 11, replicas: vec![],
    ..Default::default()
};
        let mut base: Vec<_> = elements.iter().map(|e| compile_element(e, &opts)).collect();
        let mut opt: Vec<_> = optimized.elements.iter().map(|e| compile_element(e, &opts)).collect();

        for (oid, user, payload) in &msgs {
            let mut a = make_request(*oid, user, payload);
            let mut b = a.clone();
            let va = run_chain(&mut base, &mut a);
            let vb = run_chain(&mut opt, &mut b);
            prop_assert_eq!(&va, &vb, "verdicts diverged");
            if va == Verdict::Forward {
                prop_assert_eq!(&a.fields, &b.fields, "fields diverged");
            }
        }
    }

    #[test]
    fn commute_judgment_is_sound(
        i in 0usize..7,
        j in 0usize..7,
        msgs in proptest::collection::vec(arb_message(), 1..20),
    ) {
        let pool = element_pool();
        let (a, b) = (pool[i].clone(), pool[j].clone());
        prop_assume!(adn_ir::analysis::commute(&a, &b));

        let opts = CompileOpts { seed: 3, replicas: vec![],
    ..Default::default()
};
        let mut ab = vec![compile_element(&a, &opts), compile_element(&b, &opts)];
        let mut ba = vec![compile_element(&b, &opts), compile_element(&a, &opts)];

        for (oid, user, payload) in &msgs {
            let mut m1 = make_request(*oid, user, payload);
            let mut m2 = m1.clone();
            let v1 = run_chain(&mut ab, &mut m1);
            let v2 = run_chain(&mut ba, &mut m2);
            prop_assert_eq!(&v1, &v2, "claimed-commuting pair diverged on verdict");
            if v1 == Verdict::Forward {
                prop_assert_eq!(&m1.fields, &m2.fields, "claimed-commuting pair diverged on fields");
            }
        }
        // State must also agree.
        for (e1, e2) in ab.iter().zip([&ba[1], &ba[0]]) {
            prop_assert_eq!(e1.export_state(), e2.export_state(), "state diverged");
        }
    }

    #[test]
    fn compress_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn decompress_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decompress(&data);
    }

    #[test]
    fn encryption_involutive(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        key in "[a-z]{1,12}",
    ) {
        prop_assert_eq!(xor_stream(&xor_stream(&data, &key), &key), data);
    }

    #[test]
    fn ebpf_agrees_with_native_on_numeric_filters(
        oid in 0u64..1_000_000,
        threshold in 0u64..1_000,
    ) {
        // A deterministic numeric dropper both backends accept.
        let src = format!(
            "element F() {{ on request {{ DROP WHERE input.object_id % 1000 < {threshold}; SELECT * FROM input; }} }}"
        );
        let element = lower(&src);

        // Native.
        let mut n = compile_element(&element, &CompileOpts::default());
        let mut msg = make_request(oid, "alice", b"x");
        let nv = n.process(&mut msg);

        // eBPF.
        let (req, _) = schemas();
        let types: Vec<ValueType> = req.fields().iter().map(|f| f.ty).collect();
        let compiled = ebpf::compile_for_schema(&element, &types, &[ValueType::Bool, ValueType::Bytes]).unwrap();
        let mut fields = vec![
            Value::U64(oid),
            Value::Str("alice".into()),
            Value::Bytes(b"x".to_vec()),
        ];
        let ev = run_encoded(&compiled, &mut fields);

        let native_dropped = nv == Verdict::Drop;
        let ebpf_dropped = ev == ebpf::EbpfVerdict::Drop;
        prop_assert_eq!(native_dropped, ebpf_dropped);
    }

    #[test]
    fn isa_word_encoding_roundtrips(
        opcode in any::<u8>(),
        dst in 0u8..16,
        src in 0u8..16,
        off in any::<i16>(),
        imm in any::<i32>(),
    ) {
        // The register nibbles are the only fields narrower than their
        // struct type; everything else occupies its full bit width.
        let insn = isa::BpfInsn { opcode, dst, src, off, imm };
        prop_assert_eq!(isa::BpfInsn::decode(insn.encode()), insn);
    }

    #[test]
    fn compiled_elements_prove_safe_and_run(pick in 0usize..4, oid in any::<u64>()) {
        let element = lower(offloadable_pool()[pick]);
        let (req, resp) = schemas();
        let compiled =
            ebpf::compile_for_schema(&element, &field_types(&req), &field_types(&resp)).unwrap();
        for (prog, schema) in [(&compiled.request, &req), (&compiled.response, &resp)] {
            let opts = AbsintOptions {
                num_maps: compiled.map_inits.len(),
                ctx_bytes: Some(8 * schema.fields().len()),
            };
            let verdict = absint::analyze(prog, &opts).verdict;
            prop_assert!(
                matches!(verdict, OffloadVerdict::Safe { .. }),
                "{:?}\n{}",
                verdict,
                isa::disasm(prog)
            );
        }
        let mut fields = vec![
            Value::U64(oid),
            Value::Str("alice".into()),
            Value::Bytes(b"x".to_vec()),
        ];
        run_encoded(&compiled, &mut fields);
    }

    #[test]
    fn encoded_interpreter_agrees_with_native(
        oid in any::<u64>(),
        ops in proptest::collection::vec((0usize..4, 1u64..10), 0..4),
    ) {
        // Fold a bounded expression over `input.object_id % 997`: only
        // {+, *, /, %} with small constants, so the value stays far below
        // u64::MAX and native checked arithmetic never traps where the
        // eBPF backends would wrap.
        let mut expr = "(input.object_id % 997)".to_owned();
        for (op, c) in &ops {
            let sym = ["+", "*", "/", "%"][*op];
            expr = format!("({expr} {sym} {c})");
        }
        let src = format!(
            "element D() {{ on request {{ DROP WHERE {expr} % 2 == 0; SET object_id = {expr}; SELECT * FROM input; }} }}"
        );
        let element = lower(&src);

        // Native engine.
        let mut n = compile_element(&element, &CompileOpts::default());
        let mut msg = make_request(oid, "alice", b"x");
        let nv = n.process(&mut msg);

        // Encoded real-ISA interpreter.
        let (req, _) = schemas();
        let resp_types = [ValueType::Bool, ValueType::Bytes];
        let compiled = ebpf::compile_for_schema(&element, &field_types(&req), &resp_types).unwrap();
        let mut fields = vec![
            Value::U64(oid),
            Value::Str("alice".into()),
            Value::Bytes(b"x".to_vec()),
        ];
        let ev = run_encoded(&compiled, &mut fields);

        let dropped = nv == Verdict::Drop;
        prop_assert_eq!(dropped, ev == ebpf::EbpfVerdict::Drop, "native and eBPF verdicts diverged");
        if !dropped {
            prop_assert_eq!(msg.get("object_id"), fields.first(), "native and eBPF fields diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Roadmap item 9's "decode_words/absint on arbitrary instruction
    /// words" slice: reject or run, never panic or spin.
    #[test]
    fn ebpf_verifier_never_panics_on_random_programs(
        body in proptest::collection::vec(arb_word(), 0..24),
        framed in prop_oneof![3 => Just(true), 1 => Just(false)],
        num_maps in 0usize..3,
    ) {
        // Most programs get the compiler's prologue, initialized scratch
        // registers and a clean exit, so the analysis runs deeper than the
        // first bad slot.
        let mut words = Vec::new();
        if framed {
            words.push(isa::mov64_reg(isa::CTX_REG, 1).encode());
            words.extend([0, 2, 3, 4, 5, 6, 7, 8].map(|r| isa::mov64_imm(r, r as i32).encode()));
        }
        words.extend(body);
        if framed {
            words.extend([isa::mov64_imm(0, 0).encode(), isa::exit().encode()]);
        }
        check_arbitrary_words(&words, num_maps);
    }
}

/// Fixed shapes at the edges of the decoder and the ABI. The verifier must
/// reject each, and the interpreter must return a fault, not panic.
#[test]
fn hazardous_word_shapes_are_rejected_not_panicked() {
    use isa::{call, exit, ja, jmp_imm, ldx, mov64_imm, BPF_DW, BPF_JNE};
    let [lo, hi] = isa::lddw(2, 7);
    let cases: Vec<(&str, Vec<isa::BpfInsn>)> = vec![
        ("empty program", vec![]),
        ("truncated lddw", vec![lo]),
        (
            "branch into an lddw's second slot",
            vec![jmp_imm(BPF_JNE, 1, 0, 1), lo, hi, exit()],
        ),
        ("self loop", vec![ja(-1)]),
        ("far backward jump", vec![ja(i16::MIN), exit()]),
        ("far forward jump", vec![ja(i16::MAX), exit()]),
        ("write to the frame pointer", vec![mov64_imm(10, 0), exit()]),
        (
            "load past the stack top",
            vec![ldx(BPF_DW, 0, 10, 0), exit()],
        ),
        ("unknown helper", vec![call(i32::MAX), exit()]),
    ];
    let opts = AbsintOptions {
        num_maps: 1,
        ctx_bytes: Some(8),
    };
    for (what, insns) in cases {
        let verdict = absint::analyze(&insns, &opts).verdict;
        assert!(!verdict.is_safe(), "{what}: verifier accepted it");
        let mut fields = vec![Value::U64(0)];
        let mut maps = ebpf::EbpfMaps::default();
        let mut udf = UdfRuntime::new(0);
        let mut route = ebpf::RouteDecision::default();
        let run = isa::execute_encoded(&insns, &mut fields, &mut maps, &mut udf, &mut route);
        assert!(run.is_err(), "{what}: interpreter returned {run:?}");
    }
}

fn field_types(schema: &RpcSchema) -> Vec<ValueType> {
    schema.fields().iter().map(|f| f.ty).collect()
}

/// Runs a compiled element's request program on the encoded interpreter.
fn run_encoded(compiled: &ebpf::EbpfElement, fields: &mut [Value]) -> ebpf::EbpfVerdict {
    let mut maps = ebpf::EbpfMaps::for_element(compiled);
    let mut udf = UdfRuntime::new(0);
    let mut route = ebpf::RouteDecision::default();
    isa::execute_encoded(&compiled.request, fields, &mut maps, &mut udf, &mut route)
        .unwrap_or_else(|e| panic!("compiled program faulted: {e}"))
}

/// Decodes arbitrary words and feeds them to both the abstract interpreter
/// and the encoded interpreter (with `num_maps` maps and a few fields).
/// Each must return — reject or run — rather than panic or spin.
fn check_arbitrary_words(words: &[u64], num_maps: usize) {
    let insns = isa::decode_words(words);
    let ctx_fields = [Value::U64(7), Value::Str("alice".into()), Value::Bool(true)];
    for ctx_bytes in [None, Some(8 * ctx_fields.len())] {
        let _ = absint::analyze(
            &insns,
            &AbsintOptions {
                num_maps,
                ctx_bytes,
            },
        );
    }
    let mut fields = ctx_fields.to_vec();
    let mut maps = ebpf::EbpfMaps {
        maps: (0..num_maps as u64).map(|k| [(k, k + 1)].into()).collect(),
    };
    let mut udf = UdfRuntime::new(0);
    let mut route = ebpf::RouteDecision::default();
    let _ = isa::execute_encoded(&insns, &mut fields, &mut maps, &mut udf, &mut route);
}

/// Opcodes `arb_word` draws from: every class and most operations the
/// interpreters implement.
const OPCODES: [u8; 20] = [
    isa::BPF_LD | isa::BPF_IMM | isa::BPF_DW,
    isa::BPF_LDX | isa::BPF_MEM | isa::BPF_DW,
    isa::BPF_LDX | isa::BPF_MEM | isa::BPF_B,
    isa::BPF_STX | isa::BPF_MEM | isa::BPF_DW,
    isa::BPF_ST | isa::BPF_MEM | isa::BPF_W,
    isa::BPF_ALU64 | isa::BPF_X | isa::BPF_ADD,
    isa::BPF_ALU64 | isa::BPF_K | isa::BPF_MOV,
    isa::BPF_ALU64 | isa::BPF_K | isa::BPF_DIV,
    isa::BPF_ALU64 | isa::BPF_X | isa::BPF_MOD,
    isa::BPF_ALU64 | isa::BPF_K | isa::BPF_LSH,
    isa::BPF_ALU64 | isa::BPF_K | isa::BPF_ARSH,
    isa::BPF_ALU64 | isa::BPF_NEG,
    isa::BPF_ALU | isa::BPF_X | isa::BPF_SUB,
    isa::BPF_ALU | isa::BPF_K | isa::BPF_RSH,
    isa::BPF_JMP | isa::BPF_JA,
    isa::BPF_JMP | isa::BPF_K | isa::BPF_JEQ,
    isa::BPF_JMP | isa::BPF_X | isa::BPF_JSGT,
    isa::BPF_JMP32 | isa::BPF_K | isa::BPF_JLT,
    isa::BPF_JMP | isa::BPF_CALL,
    isa::BPF_JMP | isa::BPF_EXIT,
];

/// Mostly-plausible instruction words — real opcodes, registers up to 11,
/// small offsets and immediates, helper IDs — mixed with fully random
/// words.
fn arb_word() -> impl Strategy<Value = u64> {
    let imm = prop_oneof![
        -16i32..16,
        Just(isa::HELPER_MAP_LOOKUP),
        Just(isa::HELPER_MAP_UPDATE),
        Just(isa::HELPER_HASH_FIELD),
        any::<i32>(),
    ];
    // Mostly short forward offsets, so branches usually stay in range and
    // the CFG builds; negative ones exercise the backward-edge rejection.
    let off = prop_oneof![7 => 0i16..4, 1 => -8i16..8];
    prop_oneof![
        15 => (0..OPCODES.len(), 0u8..12, 0u8..12, off, imm).prop_map(
            |(op, dst, src, off, imm)| {
                isa::BpfInsn { opcode: OPCODES[op], dst, src, off, imm }.encode()
            }
        ),
        1 => any::<u64>(),
    ]
}

/// Elements every backend offloads: pure field arithmetic, filters, and
/// the hash helper — no state tables, payload codecs, or randomness.
fn offloadable_pool() -> Vec<&'static str> {
    vec![
        "element F() { on request { DROP WHERE input.object_id % 7 == 0; SELECT * FROM input; } }",
        "element G() { on request { SET object_id = input.object_id * 3 + 1; SELECT * FROM input; } }",
        "element H() { on request { SELECT hash(input.username) AS object_id FROM input; } }",
        "element I() { on request { DROP WHERE hash(input.username) % 2 == 0; SELECT * FROM input; } }",
    ]
}
