//! Golden offload verdicts for every element in `examples/dsl/*.adn`.
//!
//! Each example file is lowered against the demo schemas and every element
//! is audited under the default [`EbpfPolicy`]. The rendered verdict —
//! proved cost bounds on acceptance, diagnostic codes and messages on
//! rejection — is pinned under `tests/verdicts/<stem>.expected`. Any change
//! to the abstract domains, the assembler, or the policy defaults shows up
//! here as a reviewable diff instead of a silent verdict flip.
//!
//! To regenerate after an intentional change:
//!   ADN_BLESS=1 cargo test -p adn-verifier --test golden_verdicts
//! then review the diff under tests/verdicts/.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use adn_dsl::parser::parse_program;
use adn_dsl::typecheck::check_element;
use adn_rpc::schema::RpcSchema;
use adn_rpc::value::ValueType;
use adn_verifier::ebpf::{audit_element, EbpfPolicy};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/verifier sits two levels below the repo root")
        .to_path_buf()
}

fn schemas() -> (Arc<RpcSchema>, Arc<RpcSchema>) {
    let req = Arc::new(
        RpcSchema::builder()
            .field("object_id", ValueType::U64)
            .field("username", ValueType::Str)
            .field("payload", ValueType::Bytes)
            .build()
            .unwrap(),
    );
    let resp = Arc::new(
        RpcSchema::builder()
            .field("ok", ValueType::Bool)
            .field("payload", ValueType::Bytes)
            .build()
            .unwrap(),
    );
    (req, resp)
}

/// Renders the default-policy verdict for every element in one `.adn`
/// source, in file order.
fn render_verdicts(source: &str) -> String {
    let (req, resp) = schemas();
    let program = parse_program(source).expect("examples parse");
    let mut out = String::new();
    for element in &program.elements {
        let checked = check_element(element, &req, &resp).expect("examples typecheck");
        let ir = adn_ir::lower_element(&checked, &[], &req, &resp).expect("examples lower");
        match audit_element(&ir, &EbpfPolicy::default()) {
            Ok(r) => {
                writeln!(
                    out,
                    "{}: offloadable — request path {} insns, response path {} insns, \
                     stack {} bytes, {} helper call(s), needs {} ctx byte(s), proved",
                    ir.name,
                    r.request_path_insns,
                    r.response_path_insns,
                    r.stack_bytes,
                    r.helper_calls,
                    r.required_ctx_bytes,
                )
                .unwrap();
            }
            Err(diags) => {
                writeln!(out, "{}: rejected", ir.name).unwrap();
                for d in diags {
                    let span = match d.span {
                        Some(s) => format!(" @ {}..{}", s.start, s.end),
                        None => String::new(),
                    };
                    writeln!(out, "  {}{span}: {}", d.code, d.message).unwrap();
                }
            }
        }
    }
    out
}

fn check_golden(stem: &str, actual: &str) {
    let dir = repo_root().join("tests/verdicts");
    let path = dir.join(format!("{stem}.expected"));
    if std::env::var_os("ADN_BLESS").is_some() {
        std::fs::create_dir_all(&dir).expect("create tests/verdicts");
        std::fs::write(&path, actual).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} (run with ADN_BLESS=1): {e}",
            path.display()
        )
    });
    assert_eq!(actual, expected, "{stem}.expected drifted from golden");
}

#[test]
fn example_verdicts_match_goldens() {
    let dir = repo_root().join("examples/dsl");
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples/dsl exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "adn"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    stems.sort();
    assert!(
        !stems.is_empty(),
        "no .adn examples found under {}",
        dir.display()
    );
    for stem in stems {
        let source =
            std::fs::read_to_string(dir.join(format!("{stem}.adn"))).expect("example readable");
        check_golden(&stem, &render_verdicts(&source));
    }
}

/// The goldens must include at least one proved acceptance and at least one
/// rejection, so the corpus keeps exercising both sides of the verdict.
#[test]
fn example_corpus_covers_both_verdicts() {
    let dir = repo_root().join("examples/dsl");
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for entry in std::fs::read_dir(&dir).expect("examples/dsl exists") {
        let path = entry.expect("dir entry").path();
        if !path.extension().is_some_and(|x| x == "adn") {
            continue;
        }
        let rendered = render_verdicts(&std::fs::read_to_string(&path).expect("readable"));
        accepted += rendered.matches("offloadable — ").count();
        rejected += rendered.matches(": rejected").count();
    }
    assert!(accepted > 0, "corpus lost all offloadable examples");
    assert!(rejected > 0, "corpus lost all rejected examples");
}
