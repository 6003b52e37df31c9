//! The eval-matrix: a declarative topology × chain × chaos × tier sweep.
//!
//! Single scenarios answer "does this configuration hold its
//! invariants?"; the matrix answers the product question — does *every*
//! combination of deployment shape, element chain, failure regime, and
//! engine tier hold them, and do the tiers agree with each other? Each
//! cell of the grid is an independent deterministic [`Scenario`] run
//! under seeds derived from the cell's name, so the whole matrix can be
//! executed by any number of workers and still produce byte-identical
//! results: cell outcomes are a pure function of `(grid, seed)`, never
//! of scheduling.
//!
//! On top of the simulator's standing invariants, every cell gets two
//! matrix-level checks:
//!
//! * **tier verdict identity** — cells that differ only in engine tier
//!   (interpreter / threaded / native JIT) must produce the identical
//!   chain-verdict stream for every seed. The JIT differential tests
//!   check this per element on synthetic inputs; the matrix checks it
//!   end-to-end through retries, dedup, batching, and chaos.
//! * **placement respects the offload verifier** — the placement the
//!   controller solves for the cell's processor class is re-audited
//!   independently: any element assigned to a kernel site must pass
//!   [`adn_verifier::ebpf::audit_element`] on its own, sites must be
//!   non-decreasing along the path, and a DPU whole-chain placement must
//!   put every element on the server NIC.
//!
//! Chains enter the grid only through the pre-flight gate
//! ([`adn_verifier::preflight_source`]): a chain the static layers
//! reject never reaches the dataplane, exactly as in production.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use adn::harness::object_store_schemas;
use adn_backend::jit::{native_available, resolve_tier, JitTier};
use adn_backend::Platform;
use adn_controller::{place_for_class, ElementConstraints, ProcessorClass};
use adn_dataplane::processor::OverloadPolicy;
use adn_ir::ElementIr;
use adn_rpc::chaos::ChaosPolicy;
use adn_verifier::ebpf::{audit_element, EbpfPolicy};
use adn_verifier::{preflight_source, PreflightOptions};
use adn_wire::header::Priority;

use crate::scenario::{OverloadModel, Scenario, SimAutoscale, SimStats};
use crate::sweep;

// ---------------------------------------------------------------------------
// Axes
// ---------------------------------------------------------------------------

/// One point on the topology axis: how the cluster is shaped.
#[derive(Debug, Clone)]
pub struct TopologySpec {
    /// Axis label (used in cell names and reports).
    pub name: String,
    /// Chain processors the elements are distributed across.
    pub processors: usize,
    /// Hardware class the placement check solves against.
    pub class: ProcessorClass,
    /// Shards the entry group scales out to, once; `1` disables
    /// autoscale.
    pub shards: usize,
    /// Frames a processor drains per batch (`1` = per-frame delivery).
    pub batch: usize,
}

impl TopologySpec {
    pub fn new(name: &str, processors: usize, class: ProcessorClass) -> Self {
        Self {
            name: name.into(),
            processors,
            class,
            shards: 1,
            batch: 1,
        }
    }
}

/// One point on the chain axis: a pre-flighted element chain.
#[derive(Debug, Clone)]
pub struct ChainSpec {
    /// Axis label.
    pub name: String,
    /// Lowered elements, straight from the pre-flight gate.
    pub elements: Vec<ElementIr>,
    /// Whether the chain can abort calls (ACL denials, fault injection);
    /// aborting chains disarm the goodput floor under overload because
    /// aborted calls are correct behavior, not lost goodput.
    pub aborts: bool,
}

impl ChainSpec {
    /// Gates `source` (a whole `.adn` program, elements in chain order)
    /// through pre-flight and builds the chain axis entry. Errors are
    /// fatal — the grid must never contain a chain the static layers
    /// reject; warnings are tolerated and the chain still runs.
    pub fn from_source(name: &str, source: &str) -> Result<Self, String> {
        let (req, resp) = object_store_schemas();
        let report = preflight_source(source, &req, &resp, &PreflightOptions::default());
        let elements = report.gate(false).map_err(|e| format!("{name}: {e}"))?;
        if elements.is_empty() {
            return Err(format!("{name}: pre-flight produced no elements"));
        }
        Ok(Self {
            name: name.into(),
            elements: elements.to_vec(),
            aborts: source.contains("ABORT"),
        })
    }
}

/// One point on the chaos axis: the failure regime applied to the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosProfile {
    /// Clean links, closed-loop workload, strict zero-loss.
    None,
    /// Drops, duplicates, reorders, and delays on every link.
    Drops,
    /// A client↔entry partition that heals mid-run.
    Partition,
    /// Open-loop 2× overload with the shed ladder armed.
    Overload,
    /// Link chaos and overload at once.
    Combined,
}

impl ChaosProfile {
    pub fn name(self) -> &'static str {
        match self {
            ChaosProfile::None => "none",
            ChaosProfile::Drops => "drops",
            ChaosProfile::Partition => "partition",
            ChaosProfile::Overload => "overload",
            ChaosProfile::Combined => "combined",
        }
    }
}

/// Axis label for an engine tier.
pub fn tier_name(tier: JitTier) -> &'static str {
    match tier {
        JitTier::Auto => "auto",
        JitTier::Interp => "interp",
        JitTier::Threaded => "threaded",
        JitTier::Native => "native",
    }
}

// ---------------------------------------------------------------------------
// Grid
// ---------------------------------------------------------------------------

/// A declarative sweep grid: the cross product of the four axes.
#[derive(Debug, Clone)]
pub struct MatrixGrid {
    /// Grid name (reported, and part of replay commands).
    pub name: String,
    /// Base seed; every cell derives its seeds from this and its name.
    pub seed: u64,
    /// Seeds run per cell.
    pub seeds_per_cell: u64,
    pub topologies: Vec<TopologySpec>,
    pub chains: Vec<ChainSpec>,
    pub chaos: Vec<ChaosProfile>,
    pub tiers: Vec<JitTier>,
}

/// The paper's object-store chain (Fault → Acl → Logging).
const OBJECT_STORE_ADN: &str = include_str!("../../../examples/dsl/object_store.adn");
/// Compress → Encrypt → Decrypt → Decompress.
const SECURE_TRANSPORT_ADN: &str = include_str!("../../../examples/dsl/secure_transport.adn");

/// A generated no-op chain: the floor of the chain axis.
const PASSTHROUGH_ADN: &str = "\
element Passthrough() {
    on request { SELECT * FROM input; }
    on response { SELECT * FROM input; }
}
";

/// A generated mutating chain: a header rewrite consumed by a stateful
/// audit log, so the dataflow lints pass warning-free.
const STAMP_AUDIT_ADN: &str = "\
element Stamp() {
    on request {
        SET object_id = input.object_id + 1;
        SELECT * FROM input;
    }
}

element Audit() {
    state seen(seq: u64 key, object_id: u64) capacity 4096;
    on request {
        INSERT INTO seen VALUES (now(), input.object_id);
        SELECT * FROM input;
    }
}
";

impl MatrixGrid {
    /// The standard grid: 4 topologies × 4 chains × 5 chaos profiles ×
    /// the available engine tiers — at least 160 cells everywhere, 240
    /// where the native JIT is available.
    pub fn standard() -> Self {
        let mut host2 = TopologySpec::new("host-2shard", 2, ProcessorClass::Host);
        host2.shards = 3;
        let mut nic = TopologySpec::new("smartnic-batch", 2, ProcessorClass::SmartNic);
        nic.batch = 4;
        let mut dpu = TopologySpec::new("dpu-batch", 1, ProcessorClass::Dpu);
        dpu.batch = 8;
        let mut tiers = vec![JitTier::Interp, JitTier::Threaded];
        if native_available() {
            tiers.push(JitTier::Native);
        }
        Self {
            name: "standard".into(),
            seed: 0,
            seeds_per_cell: 2,
            topologies: vec![
                TopologySpec::new("host-1", 1, ProcessorClass::Host),
                host2,
                nic,
                dpu,
            ],
            chains: Self::chain_catalog(&[
                ("object-store", OBJECT_STORE_ADN),
                ("secure-transport", SECURE_TRANSPORT_ADN),
                ("passthrough", PASSTHROUGH_ADN),
                ("stamp-audit", STAMP_AUDIT_ADN),
            ]),
            chaos: vec![
                ChaosProfile::None,
                ChaosProfile::Drops,
                ChaosProfile::Partition,
                ChaosProfile::Overload,
                ChaosProfile::Combined,
            ],
            tiers,
        }
    }

    /// A 2×2×2 grid (one tier pair) for the golden-output test and the
    /// CI smoke job: 8 cells, seconds to run, still exercising both
    /// matrix-level checks.
    pub fn tiny() -> Self {
        let mut dpu = TopologySpec::new("dpu-batch", 1, ProcessorClass::Dpu);
        dpu.batch = 4;
        Self {
            name: "tiny".into(),
            seed: 0,
            seeds_per_cell: 2,
            topologies: vec![TopologySpec::new("host-1", 1, ProcessorClass::Host), dpu],
            chains: Self::chain_catalog(&[
                ("object-store", OBJECT_STORE_ADN),
                ("passthrough", PASSTHROUGH_ADN),
            ]),
            chaos: vec![ChaosProfile::None, ChaosProfile::Drops],
            tiers: vec![JitTier::Interp, JitTier::Threaded],
        }
    }

    /// Looks a grid up by name (the set the `eval-matrix` binary takes).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "standard" => Some(Self::standard()),
            "tiny" => Some(Self::tiny()),
            _ => None,
        }
    }

    fn chain_catalog(sources: &[(&str, &str)]) -> Vec<ChainSpec> {
        sources
            .iter()
            .map(|(name, src)| ChainSpec::from_source(name, src).expect("catalog chain"))
            .collect()
    }

    /// Enumerates the cells in deterministic axis order: topology ×
    /// chain × chaos × tier.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for topo in &self.topologies {
            for chain in &self.chains {
                for &chaos in &self.chaos {
                    for &tier in &self.tiers {
                        out.push(Cell::new(self, topo, chain, chaos, tier));
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/// One grid cell: a fully-resolved scenario plus its axis coordinates.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `topology/chain/chaos/tier` — unique within a grid.
    pub name: String,
    pub topology: TopologySpec,
    pub chain: ChainSpec,
    pub chaos: ChaosProfile,
    pub tier: JitTier,
    /// The scenario this cell runs. Public so tests can doctor a copy
    /// (inject failures) and feed it back through [`run_cell`].
    pub scenario: Scenario,
    /// First seed for this cell, derived from the cell name and the grid
    /// seed — stable under any enumeration or scheduling order.
    pub base_seed: u64,
    /// Seeds run per cell.
    pub seeds: u64,
}

/// FNV-1a over a byte string (the cell-seed derivation).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Cell {
    fn new(
        grid: &MatrixGrid,
        topo: &TopologySpec,
        chain: &ChainSpec,
        chaos: ChaosProfile,
        tier: JitTier,
    ) -> Self {
        let name = format!(
            "{}/{}/{}/{}",
            topo.name,
            chain.name,
            chaos.name(),
            tier_name(tier)
        );
        let scenario = cell_scenario(&name, topo, chain, chaos, tier);
        // The tier is deliberately excluded from the seed: tier-sibling
        // cells must run the *same* seeds or verdict identity would be
        // vacuous.
        let sibling = format!("{}/{}/{}", topo.name, chain.name, chaos.name());
        Self {
            name,
            topology: topo.clone(),
            chain: chain.clone(),
            chaos,
            tier,
            scenario,
            base_seed: fnv1a(sibling.as_bytes()) ^ grid.seed,
            seeds: grid.seeds_per_cell,
        }
    }
}

/// Maps a cell's axis coordinates onto a concrete [`Scenario`].
fn cell_scenario(
    name: &str,
    topo: &TopologySpec,
    chain: &ChainSpec,
    chaos: ChaosProfile,
    tier: JitTier,
) -> Scenario {
    let mut s = Scenario::new(name);
    s.processors = topo.processors;
    s.batch = topo.batch;
    s.chain_specs = Some(chain.elements.clone());
    s.jit = tier;
    s.calls = 24;
    s.concurrency = 4;
    s.users = if chain.aborts {
        vec!["alice".into(), "bob".into()]
    } else {
        vec!["alice".into()]
    };
    let overloaded = matches!(chaos, ChaosProfile::Overload | ChaosProfile::Combined);
    if topo.shards > 1 && !overloaded {
        s.autoscale = Some(SimAutoscale {
            threshold: 10,
            shards: topo.shards,
        });
    }
    match chaos {
        ChaosProfile::None => {}
        ChaosProfile::Drops => {
            s.calls = 40;
            s.chaos = link_chaos(0.04, Duration::from_millis(5));
            s.allow_timeouts = true;
        }
        ChaosProfile::Partition => {
            s.partition_window = Some((Duration::from_millis(8), Duration::from_millis(30)));
            s.allow_timeouts = true;
        }
        ChaosProfile::Overload => {
            arm_overload(&mut s, if chain.aborts { 0.0 } else { 0.2 });
        }
        ChaosProfile::Combined => {
            s.chaos = link_chaos(0.02, Duration::from_millis(5));
            arm_overload(&mut s, if chain.aborts { 0.0 } else { 0.1 });
        }
    }
    s
}

fn link_chaos(p: f64, delay: Duration) -> ChaosPolicy {
    ChaosPolicy {
        drop_prob: p,
        dup_prob: p,
        reorder_prob: p,
        delay_prob: p,
        delay,
    }
}

/// 2× offered load, 50ms budgets, real shed ladder — the overload
/// preset's numbers, parameterized by the goodput floor.
fn arm_overload(s: &mut Scenario, goodput_floor: f64) {
    s.calls = 300;
    s.retry = adn_rpc::retry::RetryPolicy {
        max_attempts: 16,
        attempt_timeout: Duration::from_millis(20),
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(8),
        deadline: Duration::from_millis(50),
        propagate_deadline: true,
        priority: Priority::Normal,
    };
    s.allow_timeouts = true;
    s.overload = Some(OverloadModel {
        service_time: Duration::from_millis(1),
        issue_interval: Duration::from_micros(500),
        budget: Duration::from_millis(50),
        policy: OverloadPolicy {
            shed_high_water: 8,
            drop_expired: true,
            brownout: false,
        },
        goodput_floor,
    });
}

// ---------------------------------------------------------------------------
// Per-cell execution and checks
// ---------------------------------------------------------------------------

/// The outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub name: String,
    pub topology: String,
    pub chain: String,
    pub chaos: String,
    /// Tier the cell requested.
    pub tier: JitTier,
    /// Tier the engine actually ran (`ADN_JIT` and availability applied).
    pub tier_used: JitTier,
    pub pass: bool,
    /// Name of the violated invariant or matrix check, when failing.
    pub invariant: Option<String>,
    /// Failure detail, when failing.
    pub detail: Option<String>,
    /// Seed that failed first, when failing.
    pub failed_seed: Option<u64>,
    /// Minimal event prefix reproducing the failure (shrunk), if any.
    pub min_events: Option<u64>,
    /// Copy-pasteable replay for the shrunk failure, if any.
    pub replay: Option<String>,
    pub seeds_run: u64,
    /// Mean completed-OK throughput across seeds, msgs/sec of virtual time.
    pub msgs_per_sec: f64,
    /// Shed verdicts over issued calls, across seeds.
    pub shed_rate: f64,
    /// Chain-verdict stream fingerprint per seed (tier-identity check).
    pub verdict_streams: Vec<u64>,
    /// Event-log fingerprint of the first seed.
    pub fingerprint: u64,
    /// Stats of the first seed (compared across tier siblings).
    pub stats: SimStats,
    /// Human-readable placement the controller solved for this cell.
    pub placement: String,
    /// Whether the DPU took the whole chain.
    pub whole_chain_offload: bool,
}

/// Runs one cell: placement check first, then `cell.seeds` scenario runs
/// with every standing invariant armed, shrinking the first failure.
/// Pure function of the cell — safe to call from any worker thread.
pub fn run_cell(cell: &Cell) -> CellResult {
    let mut out = CellResult {
        name: cell.name.clone(),
        topology: cell.topology.name.clone(),
        chain: cell.chain.name.clone(),
        chaos: cell.chaos.name().to_string(),
        tier: cell.tier,
        tier_used: resolve_tier(cell.tier),
        pass: true,
        invariant: None,
        detail: None,
        failed_seed: None,
        min_events: None,
        replay: None,
        seeds_run: 0,
        msgs_per_sec: 0.0,
        shed_rate: 0.0,
        verdict_streams: Vec::new(),
        fingerprint: 0,
        stats: SimStats::default(),
        placement: String::new(),
        whole_chain_offload: false,
    };
    match placement_check(&cell.chain, cell.topology.class) {
        Ok((describe, whole)) => {
            out.placement = describe;
            out.whole_chain_offload = whole;
        }
        Err(detail) => {
            out.pass = false;
            out.invariant = Some("PlacementOffload".into());
            out.detail = Some(detail);
            return out;
        }
    }
    let mut issued = 0u64;
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut ns = 0u64;
    for k in 0..cell.seeds {
        let seed = cell.base_seed.wrapping_add(k);
        let report = cell.scenario.run(seed);
        out.seeds_run += 1;
        out.verdict_streams.push(report.stats.verdict_stream);
        if k == 0 {
            out.fingerprint = report.fingerprint();
            out.stats = report.stats.clone();
        }
        issued += report.stats.calls_issued;
        ok += report.stats.calls_ok;
        shed += report.stats.calls_shed;
        ns += report.end_ns;
        if let Some(v) = &report.violation {
            if out.pass {
                out.pass = false;
                out.invariant = Some(v.invariant.clone());
                out.detail = Some(v.detail.clone());
                out.failed_seed = Some(seed);
                if let Some(f) = sweep::shrink(&cell.scenario, seed) {
                    out.min_events = Some(f.min_events);
                    out.replay = Some(cell_replay(&cell.name, seed, f.min_events));
                }
            }
        }
    }
    if ns > 0 {
        out.msgs_per_sec = round1(ok as f64 * 1e9 / ns as f64);
    }
    if issued > 0 {
        out.shed_rate = round4(shed as f64 / issued as f64);
    }
    out
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

fn round4(x: f64) -> f64 {
    (x * 10_000.0).round() / 10_000.0
}

/// The command that replays one shrunk cell failure.
pub fn cell_replay(cell: &str, seed: u64, max_events: u64) -> String {
    format!(
        "cargo run -q --release -p adn-sim --bin eval-matrix -- \
         --cell {cell} --seed {seed} --max-events {max_events} --dump-log"
    )
}

/// The placement-respects-offload-verdict check. Solves placement for
/// the chain under the topology's hardware class, then audits the
/// solution independently: kernel-sited elements must individually pass
/// the offload verifier, sites must be non-decreasing along the path,
/// and a whole-chain DPU placement must put everything on the server
/// NIC. Returns the placement description and whether the DPU took the
/// whole chain.
pub fn placement_check(chain: &ChainSpec, class: ProcessorClass) -> Result<(String, bool), String> {
    let policy = EbpfPolicy::default();
    let cons = vec![ElementConstraints::default(); chain.elements.len()];
    let solved = place_for_class(&chain.elements, &cons, class, &policy)
        .map_err(|e| format!("no feasible placement: {e}"))?;
    let placement = solved.placement();
    for pair in placement.sites.windows(2) {
        if pair[1].path_index() < pair[0].path_index() {
            return Err(format!(
                "sites regress along the path: {:?} after {:?}",
                pair[1], pair[0]
            ));
        }
    }
    for (element, &site) in chain.elements.iter().zip(&placement.sites) {
        if site.platform() == Platform::Ebpf {
            if let Err(diags) = audit_element(element, &policy) {
                let why: Vec<String> = diags.into_iter().map(|d| d.message).collect();
                return Err(format!(
                    "element {} placed at {site:?} but fails the offload audit: {}",
                    element.name,
                    why.join("; ")
                ));
            }
        }
    }
    if solved.whole_chain()
        && placement
            .sites
            .iter()
            .any(|&s| s != adn_controller::Site::ServerNic)
    {
        return Err("whole-chain DPU placement left an element off the NIC".into());
    }
    Ok((placement.describe(&chain.elements), solved.whole_chain()))
}

// ---------------------------------------------------------------------------
// Grid execution
// ---------------------------------------------------------------------------

/// The outcome of a whole grid.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    pub grid: String,
    pub seed: u64,
    pub seeds_per_cell: u64,
    /// Per-cell results in grid enumeration order, independent of how
    /// many workers ran them.
    pub cells: Vec<CellResult>,
}

impl MatrixReport {
    pub fn passed(&self) -> bool {
        self.cells.iter().all(|c| c.pass)
    }

    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| !c.pass).count()
    }

    /// `MATRIX.json` — same schema-versioned shape the bench artifacts
    /// use, validated by `adn-bench`'s schema checker in CI.
    pub fn to_json(&self) -> serde_json::Value {
        let cells: Vec<serde_json::Value> = self
            .cells
            .iter()
            .map(|c| {
                let streams: Vec<String> = c
                    .verdict_streams
                    .iter()
                    .map(|v| format!("{v:016x}"))
                    .collect();
                serde_json::json!({
                    "name": (c.name.clone()),
                    "topology": (c.topology.clone()),
                    "chain": (c.chain.clone()),
                    "chaos": (c.chaos.clone()),
                    "tier": (tier_name(c.tier)),
                    "tier_used": (tier_name(c.tier_used)),
                    "pass": (c.pass),
                    "invariant": (opt_str(&c.invariant)),
                    "detail": (opt_str(&c.detail)),
                    "failed_seed": (opt_u64(c.failed_seed)),
                    "min_events": (opt_u64(c.min_events)),
                    "replay": (opt_str(&c.replay)),
                    "seeds_run": (c.seeds_run),
                    "msgs_per_sec": (c.msgs_per_sec),
                    "shed_rate": (c.shed_rate),
                    "verdict_streams": (streams),
                    "fingerprint": (format!("{:016x}", c.fingerprint)),
                    "placement": (c.placement.clone()),
                    "whole_chain_offload": (c.whole_chain_offload)
                })
            })
            .collect();
        serde_json::json!({
            "tool": "eval-matrix",
            "schema_version": 1,
            "grid": (self.grid.clone()),
            "seed": (self.seed),
            "seeds_per_cell": (self.seeds_per_cell),
            "summary": {
                "cells": (self.cells.len() as u64),
                "passed": ((self.cells.len() - self.failed()) as u64),
                "failed": (self.failed() as u64)
            },
            "cells": (cells)
        })
    }

    /// Human-readable summary table.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "# eval-matrix: grid `{}` (seed {}, {} seeds/cell)\n\n",
            self.grid, self.seed, self.seeds_per_cell
        ));
        s.push_str(&format!(
            "{} cells, {} passed, {} failed.\n\n",
            self.cells.len(),
            self.cells.len() - self.failed(),
            self.failed()
        ));
        s.push_str("| cell | tier used | pass | invariant | msgs/sec | shed | offload |\n");
        s.push_str("|---|---|---|---|---|---|---|\n");
        for c in &self.cells {
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} |\n",
                c.name,
                tier_name(c.tier_used),
                if c.pass { "pass" } else { "FAIL" },
                c.invariant.as_deref().unwrap_or("-"),
                c.msgs_per_sec,
                c.shed_rate,
                if c.whole_chain_offload {
                    "whole-chain"
                } else {
                    "-"
                },
            ));
        }
        for c in self.cells.iter().filter(|c| !c.pass) {
            s.push_str(&format!(
                "\n**FAIL {}**: {} — {}\n",
                c.name,
                c.invariant.as_deref().unwrap_or("?"),
                c.detail.as_deref().unwrap_or("")
            ));
            if let Some(replay) = &c.replay {
                s.push_str(&format!("\n    {replay}\n"));
            }
        }
        s
    }
}

fn opt_str(v: &Option<String>) -> serde_json::Value {
    match v {
        Some(s) => serde_json::Value::from(s.clone()),
        None => serde_json::Value::Null,
    }
}

fn opt_u64(v: Option<u64>) -> serde_json::Value {
    match v {
        Some(n) => serde_json::Value::from(n),
        None => serde_json::Value::Null,
    }
}

/// Runs every cell of `grid` on `workers` threads and applies the
/// matrix-level tier-identity check. Results are byte-identical for any
/// `workers >= 1`: cells are pure functions of their definition, and the
/// report keeps grid enumeration order regardless of which worker ran
/// which cell.
pub fn run_grid(grid: &MatrixGrid, workers: usize) -> MatrixReport {
    let cells = grid.cells();
    run_cells(grid, cells, workers)
}

/// [`run_grid`] over an explicit cell list (tests doctor cells before
/// feeding them back through this).
pub fn run_cells(grid: &MatrixGrid, cells: Vec<Cell>, workers: usize) -> MatrixReport {
    let n = cells.len();
    let slots: Vec<Mutex<Option<CellResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1).min(n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = run_cell(&cells[i]);
                *slots[i].lock().expect("cell slot") = Some(result);
            });
        }
    });
    let mut results: Vec<CellResult> = slots
        .into_iter()
        .map(|m| m.into_inner().expect("poisoned slot").expect("cell ran"))
        .collect();
    apply_tier_identity(&mut results);
    MatrixReport {
        grid: grid.name.clone(),
        seed: grid.seed,
        seeds_per_cell: grid.seeds_per_cell,
        cells: results,
    }
}

/// The tier-verdict-identity check: cells that differ only in engine
/// tier ran the same seeds and must have produced the identical
/// chain-verdict stream and counters. The first tier in grid order is
/// the baseline; a diverging sibling fails with `TierVerdictIdentity`.
pub fn apply_tier_identity(results: &mut [CellResult]) {
    use std::collections::BTreeMap;
    let mut baseline: BTreeMap<String, usize> = BTreeMap::new();
    let mut failures: Vec<(usize, String)> = Vec::new();
    for (i, c) in results.iter().enumerate() {
        let key = format!("{}/{}/{}", c.topology, c.chain, c.chaos);
        match baseline.get(&key) {
            None => {
                baseline.insert(key, i);
            }
            Some(&b) => {
                let base = &results[b];
                if !base.pass || !c.pass {
                    continue; // a standing-invariant failure already reported
                }
                if base.verdict_streams != c.verdict_streams || base.stats != c.stats {
                    failures.push((
                        i,
                        format!(
                            "tier {} diverges from tier {}: verdict streams {:?} vs {:?}",
                            tier_name(c.tier),
                            tier_name(base.tier),
                            c.verdict_streams,
                            base.verdict_streams
                        ),
                    ));
                }
            }
        }
    }
    for (i, detail) in failures {
        results[i].pass = false;
        results[i].invariant = Some("TierVerdictIdentity".into());
        results[i].detail = Some(detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_chains_pass_preflight() {
        for (name, src) in [
            ("object-store", OBJECT_STORE_ADN),
            ("secure-transport", SECURE_TRANSPORT_ADN),
            ("passthrough", PASSTHROUGH_ADN),
            ("stamp-audit", STAMP_AUDIT_ADN),
        ] {
            let chain = ChainSpec::from_source(name, src).expect(name);
            assert!(!chain.elements.is_empty());
        }
    }

    #[test]
    fn cell_seeds_ignore_the_tier_axis() {
        let grid = MatrixGrid::tiny();
        let cells = grid.cells();
        let a = cells
            .iter()
            .find(|c| c.name.ends_with("/interp"))
            .expect("interp cell");
        let b = cells
            .iter()
            .find(|c| {
                c.name.ends_with("/threaded")
                    && c.name.trim_end_matches("/threaded") == a.name.trim_end_matches("/interp")
            })
            .expect("threaded sibling");
        assert_eq!(a.base_seed, b.base_seed);
    }

    #[test]
    fn placement_check_accepts_the_catalog() {
        let grid = MatrixGrid::tiny();
        for chain in &grid.chains {
            for class in [
                ProcessorClass::Host,
                ProcessorClass::SmartNic,
                ProcessorClass::Dpu,
            ] {
                placement_check(chain, class)
                    .unwrap_or_else(|e| panic!("{}/{:?}: {e}", chain.name, class));
            }
        }
    }

    #[test]
    fn dpu_class_reports_whole_chain_offload() {
        let grid = MatrixGrid::tiny();
        let chain = &grid.chains[1]; // passthrough: trivially DPU-eligible
        let (_, whole) = placement_check(chain, ProcessorClass::Dpu).expect("placement");
        assert!(whole, "a small software chain should offload whole");
    }

    #[test]
    fn tier_identity_flags_a_diverging_sibling() {
        let grid = MatrixGrid::tiny();
        let cells: Vec<Cell> = grid.cells().into_iter().take(2).collect();
        let mut results: Vec<CellResult> = cells.iter().map(run_cell).collect();
        assert!(results.iter().all(|r| r.pass));
        // Corrupt the second tier's stream: the check must catch it.
        results[1].verdict_streams[0] ^= 1;
        apply_tier_identity(&mut results);
        assert!(results[0].pass);
        assert!(!results[1].pass);
        assert_eq!(results[1].invariant.as_deref(), Some("TierVerdictIdentity"));
    }
}
