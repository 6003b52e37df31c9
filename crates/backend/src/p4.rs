//! P4 programmable-switch simulator: match-action pipelines.
//!
//! Paper §2: "A P4-based programmable switch has access to about the first
//! 200 bytes of each network packet. To offload load balancing, we must put
//! the field the load balancer needs into the first 200 bytes of the
//! packet." This backend reproduces both halves of that reality:
//!
//! * the execution model is **match-action only**: exact-match tables over
//!   header fields, with a small fixed action set (forward, drop, abort,
//!   set-field-to-constant, route-by-hash). Anything needing general
//!   computation, per-packet state writes, randomness, or payload access is
//!   rejected at compile time;
//! * the compiler budgets the **header window**: every field the pipeline
//!   matches or writes must fit in [`HEADER_WINDOW`] bytes when encoded
//!   with the minimal header layout — the exact interplay between ADN's
//!   header synthesis and switch offload the paper describes.
//!
//! Table entries are installed from the element's `init` rows (and can be
//! updated by the controller at runtime via [`P4Tables`]), mirroring how
//! real switch tables are populated from the control plane.

use adn_ir::element::{ElementIr, IrStmt, JoinStrategy};
use adn_ir::expr::{IrBinOp, IrExpr};
use adn_rpc::value::{Value, ValueType};

/// Bytes of each packet visible to the switch.
pub const HEADER_WINDOW: usize = 200;
/// Fixed on-wire width budgeted per string field.
pub const STR_FIELD_WIDTH: usize = 32;

/// Actions a stage can take.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Continue to the next stage.
    Continue,
    /// Discard the packet.
    Drop,
    /// Reject with an abort code.
    Abort { code: u32 },
    /// Write a constant into a header field.
    SetConst { field: usize, value: Value },
    /// Route: replica index = stable_hash(field) % replica count.
    RouteByHash { field: usize },
}

/// One match-action stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Human-readable stage name.
    pub name: String,
    /// Field index matched (None = unconditional default action).
    pub match_field: Option<usize>,
    /// Index into [`P4Tables::tables`] supplying this stage's entries,
    /// when the stage matches against a (controller-updatable) table.
    /// Stages compiled from inline constants use `None` and carry their
    /// entries in `static_entries`.
    pub table: Option<usize>,
    /// Entries compiled from inline constants.
    pub static_entries: Vec<(Value, Action)>,
    /// Action when no entry matches.
    pub default: Action,
}

/// Runtime-updatable match tables (exact key → action), populated from the
/// element's init rows and maintained by the control plane thereafter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct P4Tables {
    pub tables: Vec<Vec<(Value, Action)>>,
}

/// A compiled pipeline for one element.
#[derive(Debug, Clone, PartialEq)]
pub struct P4Pipeline {
    pub name: String,
    pub request: Vec<Stage>,
    pub response: Vec<Stage>,
    /// Initial table entries.
    pub initial_tables: P4Tables,
    /// Fields (indices into the request schema) the pipeline touches —
    /// these must ride in the header window.
    pub header_fields: Vec<usize>,
}

/// Execution outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct P4Verdict {
    pub dropped: bool,
    pub abort_code: Option<u32>,
    /// Stable hash routed on, if a RouteByHash action fired.
    pub route_hash: Option<u64>,
}

impl P4Verdict {
    fn forward() -> Self {
        Self {
            dropped: false,
            abort_code: None,
            route_hash: None,
        }
    }
}

/// Runs a stage list over header fields.
pub fn execute(stages: &[Stage], tables: &P4Tables, fields: &mut [Value]) -> P4Verdict {
    let mut verdict = P4Verdict::forward();
    for stage in stages {
        let action = match stage.match_field {
            Some(f) => {
                let key = &fields[f];
                let entries: &[(Value, Action)] = match stage.table {
                    Some(t) => &tables.tables[t],
                    None => &stage.static_entries,
                };
                entries
                    .iter()
                    .find(|(k, _)| k.dsl_eq(key))
                    .map(|(_, a)| a.clone())
                    .unwrap_or_else(|| stage.default.clone())
            }
            None => stage.default.clone(),
        };
        match action {
            Action::Continue => {}
            Action::Drop => {
                verdict.dropped = true;
                return verdict;
            }
            Action::Abort { code } => {
                verdict.abort_code = Some(code);
                return verdict;
            }
            Action::SetConst { field, value } => fields[field] = value,
            Action::RouteByHash { field } => {
                verdict.route_hash = Some(fields[field].stable_hash());
            }
        }
    }
    verdict
}

/// Compiles an element to a switch pipeline, or explains why it cannot run
/// on a switch.
pub fn compile(element: &ElementIr) -> Result<P4Pipeline, String> {
    let mut tables = P4Tables::default();
    let mut header_fields = Vec::new();
    let request = compile_stmts(element, &element.request, &mut tables, &mut header_fields)?;
    let response = compile_stmts(element, &element.response, &mut tables, &mut header_fields)?;

    // Header window budget: every touched field must fit.
    let mut budget = 0usize;
    for &_f in &header_fields {
        // Without the schema the compiler budgets conservatively by value
        // type discovered at compile time; the dataplane re-checks with the
        // real schema via `check_header_budget`.
        budget += 8;
    }
    if budget > HEADER_WINDOW {
        return Err(format!(
            "pipeline needs {budget} header bytes, switch window is {HEADER_WINDOW}"
        ));
    }

    Ok(P4Pipeline {
        name: element.name.clone(),
        request,
        response,
        initial_tables: tables,
        header_fields,
    })
}

/// Re-checks the header budget against real schema types. Called by the
/// placement layer, which knows the schema.
pub fn check_header_budget(fields: &[usize], types: &[ValueType]) -> Result<usize, String> {
    let mut budget = 0usize;
    for &f in fields {
        budget += match types.get(f) {
            Some(ValueType::U64 | ValueType::I64 | ValueType::F64) => 8,
            Some(ValueType::Bool) => 1,
            Some(ValueType::Str) => STR_FIELD_WIDTH,
            Some(ValueType::Bytes) => {
                return Err(format!(
                    "field {f}: bytes fields cannot ride the switch header"
                ))
            }
            None => return Err(format!("field {f} out of schema range")),
        };
    }
    if budget > HEADER_WINDOW {
        return Err(format!(
            "header needs {budget} bytes, switch window is {HEADER_WINDOW}"
        ));
    }
    Ok(budget)
}

fn touch(header_fields: &mut Vec<usize>, f: usize) {
    if !header_fields.contains(&f) {
        header_fields.push(f);
    }
}

fn compile_stmts(
    element: &ElementIr,
    stmts: &[IrStmt],
    tables: &mut P4Tables,
    header_fields: &mut Vec<usize>,
) -> Result<Vec<Stage>, String> {
    let mut stages = Vec::new();
    for stmt in stmts {
        match stmt {
            IrStmt::Select {
                assignments,
                join,
                condition,
                else_abort,
            } => {
                if !assignments.is_empty() {
                    return Err("switch stages cannot compute projections".into());
                }
                let fail_action = match else_abort {
                    None => Action::Drop,
                    Some((IrExpr::Const(v), _)) => Action::Abort {
                        code: v.as_u64().ok_or("abort code must be numeric")? as u32,
                    },
                    Some(_) => return Err("switch ELSE ABORT codes must be constants".into()),
                };
                match (join, condition) {
                    (Some(j), cond) => {
                        let table = &element.tables[j.table];
                        let JoinStrategy::KeyLookup { input_fields } = &j.strategy else {
                            return Err("switch joins need an exact-match key".into());
                        };
                        if input_fields.len() != 1 {
                            return Err("switch joins take a single key field".into());
                        }
                        let match_field = input_fields[0];
                        touch(header_fields, match_field);
                        // Install one entry per init row: the row's key
                        // matches, and the action is decided by evaluating
                        // the SELECT condition against the row at entry
                        // install time (rows are static data).
                        let key_col = table.key_columns[0];
                        let mut entries = Vec::new();
                        for row in &table.init_rows {
                            let passes = match cond {
                                Some(c) => eval_static_pred(c, row).ok_or_else(|| {
                                    "switch SELECT conditions may only read joined columns \
                                         and constants"
                                        .to_string()
                                })?,
                                None => true,
                            };
                            entries.push((
                                row[key_col].clone(),
                                if passes {
                                    Action::Continue
                                } else {
                                    fail_action.clone()
                                },
                            ));
                        }
                        tables.tables.push(entries);
                        stages.push(Stage {
                            name: format!("join_{}", table.name),
                            match_field: Some(match_field),
                            table: Some(tables.tables.len() - 1),
                            static_entries: Vec::new(),
                            default: fail_action.clone(), // inner join miss
                        });
                    }
                    (None, Some(cond)) => {
                        let stage = compile_predicate_stage(
                            cond,
                            Action::Continue,
                            fail_action.clone(),
                            header_fields,
                        )?;
                        stages.push(stage);
                    }
                    (None, None) => {} // SELECT * FROM input: no-op stage
                }
            }
            IrStmt::Drop { condition } => match condition {
                Some(cond) => stages.push(compile_predicate_stage(
                    cond,
                    Action::Drop,
                    Action::Continue,
                    header_fields,
                )?),
                None => stages.push(Stage {
                    name: "drop".into(),
                    match_field: None,
                    table: None,
                    static_entries: Vec::new(),
                    default: Action::Drop,
                }),
            },
            IrStmt::Abort {
                code,
                message: _,
                condition,
            } => {
                let IrExpr::Const(code_v) = code else {
                    return Err("switch abort codes must be constants".into());
                };
                let code = code_v.as_u64().ok_or("abort code must be numeric")? as u32;
                match condition {
                    Some(cond) => stages.push(compile_predicate_stage(
                        cond,
                        Action::Abort { code },
                        Action::Continue,
                        header_fields,
                    )?),
                    None => stages.push(Stage {
                        name: "abort".into(),
                        match_field: None,
                        table: None,
                        static_entries: Vec::new(),
                        default: Action::Abort { code },
                    }),
                }
            }
            IrStmt::Route { key, condition } => {
                if condition.is_some() {
                    return Err("conditional ROUTE does not compile to match-action".into());
                }
                let IrExpr::Field(f) = key else {
                    return Err("switch ROUTE key must be a header field".into());
                };
                touch(header_fields, *f);
                stages.push(Stage {
                    name: "route".into(),
                    match_field: None,
                    table: None,
                    static_entries: Vec::new(),
                    default: Action::RouteByHash { field: *f },
                });
            }
            IrStmt::Set {
                field,
                value,
                condition,
            } => {
                let IrExpr::Const(v) = value else {
                    return Err("switch SET values must be constants".into());
                };
                touch(header_fields, *field);
                match condition {
                    Some(cond) => stages.push(compile_predicate_stage(
                        cond,
                        Action::SetConst {
                            field: *field,
                            value: v.clone(),
                        },
                        Action::Continue,
                        header_fields,
                    )?),
                    None => stages.push(Stage {
                        name: format!("set_f{field}"),
                        match_field: None,
                        table: None,
                        static_entries: Vec::new(),
                        default: Action::SetConst {
                            field: *field,
                            value: v.clone(),
                        },
                    }),
                }
            }
            IrStmt::Insert { .. } | IrStmt::Update { .. } | IrStmt::Delete { .. } => {
                return Err(
                    "switch data planes cannot write state tables per-packet (control-plane \
                     installs entries)"
                        .into(),
                )
            }
        }
    }
    Ok(stages)
}

/// Compiles `field == const` (or const == field) into a match stage firing
/// `on_match` when equal, `on_miss` otherwise.
fn compile_predicate_stage(
    cond: &IrExpr,
    on_match: Action,
    on_miss: Action,
    header_fields: &mut Vec<usize>,
) -> Result<Stage, String> {
    let IrExpr::Binary { op, left, right } = cond else {
        return Err("switch predicates must be `field == constant`".into());
    };
    let (field, constant, invert) = match (op, left.as_ref(), right.as_ref()) {
        (IrBinOp::Eq, IrExpr::Field(f), IrExpr::Const(c))
        | (IrBinOp::Eq, IrExpr::Const(c), IrExpr::Field(f)) => (*f, c.clone(), false),
        (IrBinOp::NotEq, IrExpr::Field(f), IrExpr::Const(c))
        | (IrBinOp::NotEq, IrExpr::Const(c), IrExpr::Field(f)) => (*f, c.clone(), true),
        _ => return Err("switch predicates must be `field ==/!= constant`".into()),
    };
    touch(header_fields, field);
    let (hit, miss) = if invert {
        (on_miss, on_match)
    } else {
        (on_match, on_miss)
    };
    Ok(Stage {
        name: format!("pred_f{field}"),
        match_field: Some(field),
        table: None,
        static_entries: vec![(constant, hit)],
        default: miss,
    })
}

/// Evaluates a SELECT condition against a static table row: only `Col` refs
/// and constants with comparison/logical ops are allowed (anything else is
/// not installable as a table entry).
fn eval_static_pred(e: &IrExpr, row: &[Value]) -> Option<bool> {
    Some(match eval_static(e, row)? {
        Value::Bool(b) => b,
        _ => return None,
    })
}

fn eval_static(e: &IrExpr, row: &[Value]) -> Option<Value> {
    match e {
        IrExpr::Const(v) => Some(v.clone()),
        IrExpr::Col(c) => row.get(*c).cloned(),
        IrExpr::Binary { op, left, right } => {
            let l = eval_static(left, row)?;
            let r = eval_static(right, row)?;
            adn_ir::expr::eval_binop(*op, &l, &r).ok()
        }
        IrExpr::Unary { op, operand } => {
            let v = eval_static(operand, row)?;
            adn_ir::expr::eval_unop(*op, &v).ok()
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_dsl::parser::parse_element;
    use adn_dsl::typecheck::check_element;
    use adn_rpc::schema::RpcSchema;

    fn schemas() -> (RpcSchema, RpcSchema) {
        (
            RpcSchema::builder()
                .field("object_id", ValueType::U64)
                .field("username", ValueType::Str)
                .field("payload", ValueType::Bytes)
                .build()
                .unwrap(),
            RpcSchema::builder()
                .field("ok", ValueType::Bool)
                .build()
                .unwrap(),
        )
    }

    fn lower(src: &str) -> ElementIr {
        let (req, resp) = schemas();
        let checked = check_element(&parse_element(src).unwrap(), &req, &resp).unwrap();
        adn_ir::lower_element(&checked, &[], &req, &resp).unwrap()
    }

    const ACL: &str = r#"
        element Acl() {
            state ac_tab(username: string key, permission: string) init {
                ('alice', 'W'), ('bob', 'R')
            };
            on request {
                SELECT * FROM input JOIN ac_tab ON input.username == ac_tab.username
                WHERE ac_tab.permission == 'W';
            }
        }
    "#;

    #[test]
    fn acl_compiles_to_match_action() {
        let p = compile(&lower(ACL)).unwrap();
        assert_eq!(p.request.len(), 1);
        assert_eq!(p.request[0].match_field, Some(1)); // username
                                                       // Entry actions were decided at install time from the row data.
        let entries = &p.initial_tables.tables[0];
        assert_eq!(entries.len(), 2);
        assert!(entries
            .iter()
            .any(|(k, a)| *k == Value::Str("alice".into()) && *a == Action::Continue));
        assert!(entries
            .iter()
            .any(|(k, a)| *k == Value::Str("bob".into()) && *a == Action::Drop));
    }

    #[test]
    fn acl_executes_like_software() {
        let p = compile(&lower(ACL)).unwrap();
        let run = |user: &str| {
            let mut fields = vec![Value::U64(1), Value::Str(user.into()), Value::Bytes(vec![])];
            execute(&p.request, &p.initial_tables, &mut fields)
        };
        assert!(!run("alice").dropped);
        assert!(run("bob").dropped);
        assert!(run("eve").dropped, "unknown users drop (inner join)");
    }

    #[test]
    fn route_compiles_and_hashes() {
        let p = compile(&lower(
            "element Lb() { on request { ROUTE input.object_id; SELECT * FROM input; } }",
        ))
        .unwrap();
        let mut fields = vec![Value::U64(42), Value::Str("x".into()), Value::Bytes(vec![])];
        let v = execute(&p.request, &p.initial_tables, &mut fields);
        assert_eq!(v.route_hash, Some(Value::U64(42).stable_hash()));
        assert_eq!(p.header_fields, vec![0]);
    }

    #[test]
    fn compression_rejected() {
        let err = compile(&lower(
            "element C() { on request { SET payload = compress(input.payload); SELECT * FROM input; } }",
        ))
        .unwrap_err();
        assert!(err.contains("constant"), "{err}");
    }

    #[test]
    fn state_writes_rejected() {
        let err = compile(&lower(
            r#"element L() {
                state t(k: u64 key, v: u64);
                on request { INSERT INTO t VALUES (input.object_id, 1); SELECT * FROM input; }
            }"#,
        ))
        .unwrap_err();
        assert!(err.contains("control-plane"), "{err}");
    }

    #[test]
    fn random_rejected() {
        let err = compile(&lower(
            "element F(p: f64 = 0.1) { on request { ABORT(3) WHERE random() < p; SELECT * FROM input; } }",
        ))
        .unwrap_err();
        assert!(err.contains("field"), "{err}");
    }

    #[test]
    fn fixed_abort_with_eq_condition_compiles() {
        let p = compile(&lower(
            "element A() { on request { ABORT(9) WHERE input.object_id == 13; SELECT * FROM input; } }",
        ))
        .unwrap();
        let mut unlucky = vec![Value::U64(13), Value::Str("x".into()), Value::Bytes(vec![])];
        assert_eq!(
            execute(&p.request, &p.initial_tables, &mut unlucky).abort_code,
            Some(9)
        );
        let mut ok = vec![Value::U64(14), Value::Str("x".into()), Value::Bytes(vec![])];
        assert_eq!(
            execute(&p.request, &p.initial_tables, &mut ok).abort_code,
            None
        );
    }

    #[test]
    fn header_budget_checked_against_schema() {
        // username is a string: 32 bytes; object_id 8. Both fit.
        let types: Vec<ValueType> = schemas().0.fields().iter().map(|f| f.ty).collect();
        assert!(check_header_budget(&[0, 1], &types).unwrap() <= HEADER_WINDOW);
        // Bytes fields never fit.
        assert!(check_header_budget(&[2], &types).is_err());
        // Many string fields blow the window.
        let many_strs: Vec<ValueType> = (0..8).map(|_| ValueType::Str).collect();
        assert!(check_header_budget(&[0, 1, 2, 3, 4, 5, 6, 7], &many_strs).is_err());
    }
}
