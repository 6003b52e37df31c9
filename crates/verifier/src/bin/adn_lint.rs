//! `adn-lint` — static verification for ADN element sources.
//!
//! Lints `.adn` files (or directories of them) through every layer:
//! lex/parse/typecheck (`E00xx`), chain dataflow verification (`V00xx`),
//! an audit of what the optimizer would do to the chain (`A00xx`), and —
//! with `--ebpf` — the offload verifier (`B00xx`, reported as warnings
//! here since "not offloadable" only costs performance, not correctness).
//!
//! All elements in one file are linted as one chain, in file order,
//! against the standard demo schemas (`object_id`, `username`, `payload`
//! requests; `ok`, `payload` responses).
//!
//! Exit status: 0 clean, 1 diagnostics reported (errors, or warnings
//! under `--deny-warnings`), 2 usage or I/O failure.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use adn_dsl::diag::{Diagnostic, Severity};
use adn_dsl::parser::parse_program;
use adn_dsl::typecheck::check_element;
use adn_ir::{lower_element, optimize, ChainIr, ElementIr, PassConfig};
use adn_rpc::schema::RpcSchema;
use adn_rpc::value::ValueType;
use adn_verifier::{absint, audit_headers, audit_report, ebpf, verify_chain, ChainVerifyOptions};

const USAGE: &str = "usage: adn-lint [options] <file.adn | dir>...
options:
  --json            emit one JSON object per diagnostic instead of text
  --deny-warnings   exit with status 1 on warnings, not only errors
  --shard-field N   check state partitionability against request field N
  --ebpf            report which elements would not offload to eBPF
  --ebpf-disasm     dump each element's encoded eBPF programs: disassembly,
                    per-block abstract states, and the offload verdict
  --jit-audit       warn on elements that escape the JIT fast path (V0006)
  --jit-dump        dump each element's JIT program: plan notes, op IR, and
                    (on x86-64) the emitted machine code bytes per op
  --catalog         also lint every element in the standard catalog
  -h, --help        show this help";

struct Options {
    json: bool,
    deny_warnings: bool,
    shard_field: Option<usize>,
    ebpf: bool,
    ebpf_disasm: bool,
    jit_audit: bool,
    jit_dump: bool,
    catalog: bool,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        deny_warnings: false,
        shard_field: None,
        ebpf: false,
        ebpf_disasm: false,
        jit_audit: false,
        jit_dump: false,
        catalog: false,
        paths: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--ebpf" => opts.ebpf = true,
            "--ebpf-disasm" => opts.ebpf_disasm = true,
            "--jit-audit" => opts.jit_audit = true,
            "--jit-dump" => opts.jit_dump = true,
            "--catalog" => opts.catalog = true,
            "--shard-field" => {
                let v = args.next().ok_or("--shard-field needs a field index")?;
                opts.shard_field = Some(v.parse().map_err(|_| format!("bad field index {v:?}"))?);
            }
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if opts.paths.is_empty() && !opts.catalog {
        return Err("no inputs given".into());
    }
    Ok(opts)
}

fn collect_adn_files(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            if entry.is_dir() || entry.extension().is_some_and(|x| x == "adn") {
                collect_adn_files(&entry, out)?;
            }
        }
        Ok(())
    } else if path.is_file() {
        out.push(path.to_path_buf());
        Ok(())
    } else {
        Err(format!("{}: no such file or directory", path.display()))
    }
}

fn schemas() -> (Arc<RpcSchema>, Arc<RpcSchema>) {
    let req = Arc::new(
        RpcSchema::builder()
            .field("object_id", ValueType::U64)
            .field("username", ValueType::Str)
            .field("payload", ValueType::Bytes)
            .build()
            .expect("demo request schema"),
    );
    let resp = Arc::new(
        RpcSchema::builder()
            .field("ok", ValueType::Bool)
            .field("payload", ValueType::Bytes)
            .build()
            .expect("demo response schema"),
    );
    (req, resp)
}

#[derive(Default)]
struct Tally {
    errors: usize,
    warnings: usize,
}

impl Tally {
    /// Prints `diag` against `source` (the text its span indexes into) and
    /// counts it.
    fn emit(&mut self, opts: &Options, diag: &Diagnostic, origin: &str, source: &str) {
        match diag.severity {
            Severity::Error => self.errors += 1,
            Severity::Warning => self.warnings += 1,
        }
        if opts.json {
            println!("{}", diag.to_json(origin, Some(source)));
        } else {
            println!("{}", diag.render(origin, source));
        }
    }
}

/// Lints one source unit (a file or the catalog pseudo-unit). The unit's
/// elements form one chain.
fn lint_unit(opts: &Options, origin: &str, source: &str, tally: &mut Tally) {
    let (req, resp) = schemas();

    let program = match parse_program(source) {
        Ok(p) => p,
        Err(e) => {
            tally.emit(opts, &e.to_diagnostic(), origin, source);
            return;
        }
    };

    // Front end: typecheck and lower each element. Spans from this stage
    // index into the unit's own text.
    let mut lowered: Vec<ElementIr> = Vec::new();
    let mut frontend_clean = true;
    for element in &program.elements {
        let checked = match check_element(element, &req, &resp) {
            Ok(c) => c,
            Err(e) => {
                tally.emit(opts, &e.to_diagnostic(), origin, source);
                frontend_clean = false;
                continue;
            }
        };
        match lower_element(&checked, &[], &req, &resp) {
            Ok(ir) => lowered.push(ir),
            Err(e) => {
                let diag = Diagnostic::error(
                    adn_dsl::diag::codes::INVALID_CONTEXT,
                    format!("element `{}` does not lower: {e}", element.name),
                );
                tally.emit(opts, &diag, origin, source);
                frontend_clean = false;
            }
        }
    }
    if !frontend_clean {
        return; // chain-level results would be noise on a partial chain
    }

    let chain = ChainIr::new(lowered, req, resp);

    // Chain dataflow lints. Spans index into the element's canonical
    // source, so render against that, labelled `origin:Element`.
    let copts = ChainVerifyOptions {
        shard_field: opts.shard_field,
        jit_audit: opts.jit_audit,
    };
    for finding in verify_chain(&chain, &copts) {
        match finding.element {
            Some(i) => {
                let e = &chain.elements[i];
                let label = format!("{origin}:{}", e.name);
                tally.emit(opts, &finding.diagnostic, &label, &e.source);
            }
            None => tally.emit(opts, &finding.diagnostic, origin, ""),
        }
    }

    // Optimizer audit: run the default passes, then re-validate the report
    // and every minimal header the optimized chain implies.
    let (optimized, report) = optimize(chain.clone(), &PassConfig::default());
    for diag in audit_report(&chain, &optimized, &report) {
        tally.emit(opts, &diag, origin, "");
    }
    for diag in audit_headers(&optimized) {
        tally.emit(opts, &diag, origin, "");
    }

    // Offload report: B-codes are demoted to warnings here — an element
    // that stays on a native processor is slower, not wrong.
    if opts.ebpf {
        let policy = ebpf::EbpfPolicy::default();
        for element in &chain.elements {
            if let Err(diags) = ebpf::audit_element(element, &policy) {
                for mut diag in diags {
                    diag.severity = Severity::Warning;
                    let label = format!("{origin}:{}", element.name);
                    tally.emit(opts, &diag, &label, &element.source);
                }
            }
        }
    }

    if opts.ebpf_disasm {
        dump_ebpf_disasm(origin, &chain);
    }

    if opts.jit_dump {
        dump_jit(origin, &chain);
    }
}

/// Dumps the compiled JIT program for every element in the chain: the
/// lowering statistics line, then the annotated listing — plan notes, op
/// IR, and (when the native tier is available) the machine code bytes
/// emitted for each op.
fn dump_jit(origin: &str, chain: &ChainIr) {
    use adn_backend::jit::{resolve_tier, JitEngine, JitTier};
    use adn_backend::native::CompileOpts;
    use adn_rpc::message::MessageKind;

    let tier = resolve_tier(JitTier::Auto);
    for element in &chain.elements {
        let mut engine = JitEngine::single(element, &CompileOpts::default(), tier);
        engine.bind_schema(MessageKind::Request, &chain.request_schema);
        engine.bind_schema(MessageKind::Response, &chain.response_schema);
        for kind in [MessageKind::Request, MessageKind::Response] {
            let dir = match kind {
                MessageKind::Request => "request",
                MessageKind::Response => "response",
            };
            let st = engine.stats(kind);
            println!(
                ";; {origin}:{} {dir} — tier {:?}: {} inline op(s), {} fast-path stmt(s), {} escape(s), {} eliminated",
                element.name,
                engine.effective_tier(),
                st.inline_ops,
                st.fast_stmts,
                st.escapes,
                st.eliminated,
            );
            print!("{}", engine.listing(kind));
        }
    }
}

/// Dumps the encoded eBPF programs for every offloadable element in the
/// chain: the real-ISA disassembly with the abstract interpreter's entry
/// state printed above each basic block, then the verdict line whose cost
/// bounds the placement solver consumes.
fn dump_ebpf_disasm(origin: &str, chain: &ChainIr) {
    use adn_backend::{ebpf as kernel, isa};

    for element in &chain.elements {
        let compiled = match kernel::compile(element) {
            Ok(c) => c,
            Err(why) => {
                println!(";; {origin}:{}: not offloadable: {why}", element.name);
                continue;
            }
        };
        for (dir, prog) in [
            ("request", &compiled.request),
            ("response", &compiled.response),
        ] {
            let analysis = absint::analyze(
                prog,
                &absint::AbsintOptions {
                    num_maps: compiled.map_inits.len(),
                    ctx_bytes: None,
                },
            );
            println!(
                ";; {origin}:{} {dir} — {} slot(s), {} block(s), {} pruned edge(s)",
                element.name,
                prog.len(),
                analysis.block_states.len(),
                analysis.pruned_edges
            );
            let mut pc = 0;
            while pc < prog.len() {
                for (bi, b) in analysis.block_states.iter().enumerate() {
                    if b.start == pc {
                        println!(";;   block {bi} @ {pc}: {}", b.entry);
                    }
                }
                let (text, used) = isa::disasm_one(prog[pc], prog.get(pc + 1).copied());
                println!("{pc:4}: {text}");
                pc += used;
            }
            let verdict = match &analysis.verdict {
                absint::OffloadVerdict::Safe { cost } => format!(
                    "safe — worst path {} insn(s), {} stack byte(s), {} helper call(s)",
                    cost.max_insns, cost.stack_bytes, cost.helper_calls
                ),
                absint::OffloadVerdict::Conditional {
                    required_ctx_bytes,
                    cost,
                } => format!(
                    "conditional on >= {required_ctx_bytes} context byte(s) — worst path {} insn(s), {} stack byte(s), {} helper call(s)",
                    cost.max_insns, cost.stack_bytes, cost.helper_calls
                ),
                absint::OffloadVerdict::Unsafe { diags } => format!(
                    "unsafe — {}",
                    diags
                        .iter()
                        .map(|d| d.code)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            };
            println!(";; verdict: {verdict}");
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("adn-lint: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut files = Vec::new();
    for path in &opts.paths {
        if let Err(e) = collect_adn_files(path, &mut files) {
            eprintln!("adn-lint: {e}");
            return ExitCode::from(2);
        }
    }

    let mut tally = Tally::default();
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("adn-lint: {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        lint_unit(&opts, &file.display().to_string(), &source, &mut tally);
    }

    if opts.catalog {
        // Each catalog element lints as its own single-element chain: the
        // catalog is a library, not a chain, so cross-element lints (dead
        // writes etc.) do not apply between entries.
        for (name, source) in adn_elements::sources::ALL {
            lint_unit(&opts, &format!("catalog:{name}"), source, &mut tally);
        }
    }

    if !opts.json {
        println!(
            "adn-lint: {} error(s), {} warning(s)",
            tally.errors, tally.warnings
        );
    }
    if tally.errors > 0 || (opts.deny_warnings && tally.warnings > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
