//! The placement solver.
//!
//! Elements of a chain execute somewhere on the path from the calling
//! application to the called application. The candidate sites, in path
//! order:
//!
//! ```text
//! ClientLib → ClientEbpf → ClientNic → ClientSidecar
//!     → Switch → ServerSidecar → ServerNic → ServerEbpf → ServerLib
//! ```
//!
//! A valid placement assigns each element a site such that site order is
//! non-decreasing along the chain (messages only move forward). The solver
//! is an exact dynamic program over (element, site) minimizing estimated
//! per-RPC latency: per-element execution cost scaled by the platform's
//! speed factor, plus a boundary cost each time processing moves to a new
//! site (an extra process hop costs far more than staying in-context).
//!
//! Feasibility combines three gates, all from the paper:
//! * **capability** — `adn_backend::supports` (can this element compile to
//!   that platform at all? §2 "non-portability"),
//! * **resources** — the environment must offer the device (eBPF-capable
//!   kernel, SmartNIC present, programmable switch on path),
//! * **constraints** — trust (`OffApp`: not inside the application binary,
//!   §3) and co-location pins (`SenderSide`/`ReceiverSide`, §4 Q1).

use adn_backend::Platform;
use adn_cluster::resources::{NodeSpec, PlacementConstraint, SwitchSpec};
use adn_ir::ElementIr;
use adn_verifier::ebpf::EbpfPolicy;

/// A processor site on the client→server path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Site {
    /// Inside the caller's RPC library (Figure 2, Configuration 1).
    ClientLib,
    /// Caller-side kernel eBPF.
    ClientEbpf,
    /// Caller-side SmartNIC.
    ClientNic,
    /// Caller-side sidecar process (today's service-mesh position).
    ClientSidecar,
    /// Programmable switch on the path.
    Switch,
    /// Callee-side sidecar process.
    ServerSidecar,
    /// Callee-side SmartNIC.
    ServerNic,
    /// Callee-side kernel eBPF.
    ServerEbpf,
    /// Inside the callee's RPC library.
    ServerLib,
}

/// All sites in path order.
pub const ALL_SITES: [Site; 9] = [
    Site::ClientLib,
    Site::ClientEbpf,
    Site::ClientNic,
    Site::ClientSidecar,
    Site::Switch,
    Site::ServerSidecar,
    Site::ServerNic,
    Site::ServerEbpf,
    Site::ServerLib,
];

impl Site {
    /// Position along the path (for the ordering constraint).
    pub fn path_index(self) -> usize {
        ALL_SITES.iter().position(|s| *s == self).expect("site")
    }

    /// The backend platform implementing this site.
    pub fn platform(self) -> Platform {
        match self {
            Site::ClientLib | Site::ServerLib | Site::ClientSidecar | Site::ServerSidecar => {
                Platform::Software
            }
            Site::ClientEbpf | Site::ServerEbpf => Platform::Ebpf,
            Site::ClientNic | Site::ServerNic => Platform::SmartNic,
            Site::Switch => Platform::Switch,
        }
    }

    /// Whether the site sits inside the application binary's process.
    pub fn in_app(self) -> bool {
        matches!(self, Site::ClientLib | Site::ServerLib)
    }

    /// Whether the site is on the caller's host.
    pub fn client_side(self) -> bool {
        matches!(
            self,
            Site::ClientLib | Site::ClientEbpf | Site::ClientNic | Site::ClientSidecar
        )
    }

    /// Whether the site is on the callee's host.
    pub fn server_side(self) -> bool {
        matches!(
            self,
            Site::ServerLib | Site::ServerEbpf | Site::ServerNic | Site::ServerSidecar
        )
    }

    /// Whether the site needs a standalone processor endpoint (vs running
    /// inside the application's RPC library).
    pub fn needs_processor(self) -> bool {
        !self.in_app()
    }

    /// Relative per-unit execution speed (lower = faster for the host CPU
    /// budget; the switch is effectively free for supported operations).
    fn speed_factor(self) -> f64 {
        match self {
            Site::ClientLib | Site::ServerLib => 1.0,
            Site::ClientSidecar | Site::ServerSidecar => 1.1, // cache-cold process
            Site::ClientEbpf | Site::ServerEbpf => 0.8,
            Site::ClientNic | Site::ServerNic => 0.7,
            Site::Switch => 0.05,
        }
    }

    /// Cost of moving processing into this site from a different site
    /// (serialization + context/process/device boundary).
    fn entry_cost(self) -> f64 {
        match self {
            Site::ClientLib | Site::ServerLib => 0.0, // app path, already there
            Site::ClientEbpf | Site::ServerEbpf => 15.0, // kernel boundary
            Site::ClientNic | Site::ServerNic => 25.0, // PCIe hop
            Site::ClientSidecar | Site::ServerSidecar => 120.0, // extra process hop
            Site::Switch => 5.0,                      // on the path anyway
        }
    }
}

/// The deployment environment the solver works against.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Caller's node.
    pub client_node: NodeSpec,
    /// Callee's node.
    pub server_node: NodeSpec,
    /// Switch on the path, if any.
    pub switch: Option<SwitchSpec>,
    /// Trust policy: when false, `ClientLib`/`ServerLib` are unavailable
    /// for *all* elements (operator forbids in-app processing entirely).
    pub allow_in_app: bool,
}

impl Environment {
    /// Whether `site` exists in this environment.
    fn available(&self, site: Site) -> bool {
        match site {
            Site::ClientLib | Site::ServerLib => self.allow_in_app,
            Site::ClientSidecar | Site::ServerSidecar => true,
            Site::ClientEbpf => self.client_node.ebpf_capable,
            Site::ServerEbpf => self.server_node.ebpf_capable,
            Site::ClientNic => self.client_node.smartnic.is_some(),
            Site::ServerNic => self.server_node.smartnic.is_some(),
            Site::Switch => self
                .switch
                .as_ref()
                .map(|s| s.programmable)
                .unwrap_or(false),
        }
    }
}

/// A placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Site per element, in chain order (non-decreasing path index).
    pub sites: Vec<Site>,
    /// The DP's estimated per-RPC cost.
    pub cost: f64,
}

impl Placement {
    /// Groups consecutive elements on the same site: (site, start, end).
    pub fn groups(&self) -> Vec<(Site, usize, usize)> {
        let mut out: Vec<(Site, usize, usize)> = Vec::new();
        for (i, &site) in self.sites.iter().enumerate() {
            match out.last_mut() {
                Some((s, _, end)) if *s == site => *end = i + 1,
                _ => out.push((site, i, i + 1)),
            }
        }
        out
    }

    /// Human-readable summary for examples and reports.
    pub fn describe(&self, elements: &[ElementIr]) -> String {
        let mut s = String::new();
        for (site, start, end) in self.groups() {
            if !s.is_empty() {
                s.push_str(" → ");
            }
            let names: Vec<&str> = elements[start..end]
                .iter()
                .map(|e| e.name.as_str())
                .collect();
            s.push_str(&format!("{site:?}[{}]", names.join("+")));
        }
        s
    }
}

/// Placement failure: some element fits nowhere.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceError {
    pub element: String,
    pub reasons: Vec<(Site, String)>,
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "element {:?} has no feasible site:", self.element)?;
        for (site, reason) in &self.reasons {
            writeln!(f, "  {site:?}: {reason}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PlaceError {}

/// Per-element constraints resolved from the AdnConfig.
#[derive(Debug, Clone, Default)]
pub struct ElementConstraints {
    pub constraints: Vec<PlacementConstraint>,
}

impl ElementConstraints {
    fn allows(&self, site: Site) -> Result<(), String> {
        for c in &self.constraints {
            match c {
                PlacementConstraint::OffApp if site.in_app() => {
                    return Err("mandatory policy may not run inside the app binary".into())
                }
                PlacementConstraint::SenderSide if !site.client_side() => {
                    return Err("pinned to the sender side".into())
                }
                PlacementConstraint::ReceiverSide if !site.server_side() => {
                    return Err("pinned to the receiver side".into())
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Execution-cost weight of one verified encoded instruction on an eBPF
/// site (the kernel runs straight-line bytecode close to native speed).
const EBPF_INSN_UNIT: f64 = 0.1;
/// Weight of one verified worst-case helper call on an eBPF site (map
/// accesses hash, probe, and copy — far heavier than an ALU op).
const EBPF_HELPER_UNIT: f64 = 1.0;

/// Solves placement for `elements` under `constraints` in `env`, with the
/// default (permissive) kernel offload policy.
pub fn place(
    elements: &[ElementIr],
    constraints: &[ElementConstraints],
    env: &Environment,
) -> Result<Placement, PlaceError> {
    place_with_policy(elements, constraints, env, &EbpfPolicy::default())
}

/// Solves placement under an explicit eBPF offload policy. An element only
/// qualifies for an eBPF site if the offload verifier
/// ([`adn_verifier::ebpf::audit_element`]) passes it under `policy`; one
/// that compiles but fails the audit falls back to native processors.
pub fn place_with_policy(
    elements: &[ElementIr],
    constraints: &[ElementConstraints],
    env: &Environment,
    ebpf_policy: &EbpfPolicy,
) -> Result<Placement, PlaceError> {
    assert_eq!(elements.len(), constraints.len());
    if elements.is_empty() {
        return Ok(Placement {
            sites: Vec::new(),
            cost: 0.0,
        });
    }

    // Feasible sites + execution cost per element.
    let mut feasible: Vec<Vec<(usize, f64)>> = Vec::with_capacity(elements.len());
    for (element, cons) in elements.iter().zip(constraints) {
        let facts = adn_ir::analysis::analyze(element);
        let exec_units = facts.total_cost() as f64;
        // Offload verdict is per element, not per site: compute it once.
        let ebpf_verdict = adn_verifier::ebpf::audit_element(element, ebpf_policy);
        let mut options = Vec::new();
        let mut reasons = Vec::new();
        for (si, &site) in ALL_SITES.iter().enumerate() {
            if !env.available(site) {
                reasons.push((site, "not available in this environment".to_owned()));
                continue;
            }
            if let Err(reason) = cons.allows(site) {
                reasons.push((site, reason));
                continue;
            }
            if let Err(reason) = adn_backend::supports(element, site.platform()) {
                reasons.push((site, reason));
                continue;
            }
            let exec = if site.platform() == Platform::Ebpf {
                match &ebpf_verdict {
                    Err(diags) => {
                        let why: Vec<String> = diags.iter().map(|d| d.message.clone()).collect();
                        reasons.push((site, format!("offload verifier: {}", why.join("; "))));
                        continue;
                    }
                    // Rank the kernel site by the *verified* worst-case
                    // bound from the abstract interpreter, not the IR
                    // estimate: encoded instructions on the longest
                    // feasible path of each direction, plus helper-call
                    // overhead (a map access dominates straight-line
                    // arithmetic by an order of magnitude).
                    Ok(report) => {
                        let insns = report.request_path_insns + report.response_path_insns;
                        insns as f64 * EBPF_INSN_UNIT
                            + report.helper_calls as f64 * EBPF_HELPER_UNIT
                    }
                }
            } else {
                exec_units * site.speed_factor()
            };
            options.push((si, exec));
        }
        if options.is_empty() {
            return Err(PlaceError {
                element: element.name.clone(),
                reasons,
            });
        }
        feasible.push(options);
    }

    // DP over (element, site index): min cost with non-decreasing sites.
    // Boundary costs are paid on each site change, including the implicit
    // start at ClientLib (the app emits there) — entering any non-app site
    // pays its entry cost once per contiguous group.
    let n = elements.len();
    let mut dp: Vec<Vec<f64>> = vec![vec![f64::INFINITY; ALL_SITES.len()]; n];
    let mut parent: Vec<Vec<usize>> = vec![vec![usize::MAX; ALL_SITES.len()]; n];

    for &(si, exec) in &feasible[0] {
        dp[0][si] = ALL_SITES[si].entry_cost() + exec;
    }
    for i in 1..n {
        for &(si, exec) in &feasible[i] {
            for prev_si in 0..=si {
                if dp[i - 1][prev_si].is_finite() {
                    let boundary = if prev_si == si {
                        0.0
                    } else {
                        ALL_SITES[si].entry_cost()
                    };
                    let cost = dp[i - 1][prev_si] + boundary + exec;
                    if cost < dp[i][si] {
                        dp[i][si] = cost;
                        parent[i][si] = prev_si;
                    }
                }
            }
        }
    }

    // Pick the best terminal site (delivery to the server app is free from
    // any site — the message continues along the path regardless).
    let (mut best_si, mut best_cost) = (usize::MAX, f64::INFINITY);
    for (si, &cost) in dp[n - 1].iter().enumerate().take(ALL_SITES.len()) {
        if cost < best_cost {
            best_cost = cost;
            best_si = si;
        }
    }
    if best_si == usize::MAX {
        // Every element has a feasible site in isolation, but no
        // non-decreasing assignment exists along the path (e.g. a
        // receiver-pinned element ordered before a sender-pinned one).
        return Err(PlaceError {
            element: "<chain ordering>".to_owned(),
            reasons: vec![(
                Site::ClientLib,
                "element constraints are individually satisfiable but their                  chain order admits no forward-only path assignment"
                    .to_owned(),
            )],
        });
    }

    let mut sites_rev = vec![best_si];
    for i in (1..n).rev() {
        let prev = parent[i][*sites_rev.last().expect("nonempty")];
        sites_rev.push(prev);
    }
    sites_rev.reverse();
    Ok(Placement {
        sites: sites_rev.into_iter().map(|si| ALL_SITES[si]).collect(),
        cost: best_cost,
    })
}

/// Relative per-unit execution speed of DPU SoC cores. Wimpier than the
/// host CPU (FlatProxy's trade: slower cores, but the host spends zero
/// cycles and the chain stays off the application path entirely).
const DPU_SPEED: f64 = 1.4;

/// A DPU-class device fronting the callee: an on-path SoC (think
/// BlueField-style NIC) that can host an *entire* chain as one software
/// processor, FlatProxy-style. Unlike a SmartNIC site — which competes
/// per element inside the DP — a DPU either takes the whole chain or
/// nothing: splitting a chain across the DPU boundary would reintroduce
/// the PCIe round-trips the device exists to avoid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpuSpec {
    /// SoC cores available for chain processors.
    pub cpu_slots: u32,
    /// Largest total per-RPC execution cost (IR units) the SoC absorbs
    /// before it would become the bottleneck.
    pub max_chain_units: f64,
    /// Program-table limit: how many elements fit at once.
    pub max_elements: usize,
}

impl Default for DpuSpec {
    fn default() -> Self {
        DpuSpec {
            cpu_slots: 4,
            max_chain_units: 1024.0,
            max_elements: 8,
        }
    }
}

/// Processor hardware class for a deployment, as swept by eval-matrix.
/// Each class implies a canonical [`Environment`] for the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessorClass {
    /// Plain hosts: no kernel offload, no NIC, no programmable switch.
    Host,
    /// eBPF-capable hosts with SmartNICs and a programmable switch.
    SmartNic,
    /// A DPU fronting the server; the host side stays plain.
    Dpu,
}

impl ProcessorClass {
    /// The canonical environment for this class, against standard nodes.
    pub fn environment(self) -> Environment {
        use adn_cluster::resources::{NodeId, SmartNicSpec};
        let node = |id: u32, ebpf: bool, nic: bool| NodeSpec {
            id: NodeId(id),
            name: format!("n{id}"),
            cpu_slots: 8,
            ebpf_capable: ebpf,
            smartnic: nic.then_some(SmartNicSpec { cpu_slots: 4 }),
        };
        match self {
            ProcessorClass::Host => Environment {
                client_node: node(1, false, false),
                server_node: node(2, false, false),
                switch: None,
                allow_in_app: true,
            },
            ProcessorClass::SmartNic => Environment {
                client_node: node(1, true, true),
                server_node: node(2, true, true),
                switch: Some(adn_cluster::resources::SwitchSpec {
                    id: adn_cluster::resources::SwitchId(1),
                    name: "tor".into(),
                    programmable: true,
                    table_capacity: 1024,
                }),
                allow_in_app: true,
            },
            ProcessorClass::Dpu => Environment {
                client_node: node(1, false, false),
                server_node: node(2, false, true),
                switch: None,
                allow_in_app: true,
            },
        }
    }
}

/// How a chain landed when a DPU was on offer.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassPlacement {
    /// The DPU took the whole chain (every element at [`Site::ServerNic`]).
    WholeChain(Placement),
    /// Whole-chain offload was refused; the per-element DP placed it.
    PerElement(Placement),
}

impl ClassPlacement {
    pub fn placement(&self) -> &Placement {
        match self {
            ClassPlacement::WholeChain(p) | ClassPlacement::PerElement(p) => p,
        }
    }

    pub fn whole_chain(&self) -> bool {
        matches!(self, ClassPlacement::WholeChain(_))
    }
}

/// Whole-chain DPU offload: all-or-nothing. Accepts iff every element
/// compiles to a software engine (the SoC runs ordinary processors), no
/// element is pinned to the sender side (the DPU fronts the receiver),
/// the chain fits the program table, and the summed execution cost stays
/// within the SoC budget. On refusal the error lists every offending
/// element with its reason, so callers can fall back per element.
pub fn place_whole_chain(
    elements: &[ElementIr],
    constraints: &[ElementConstraints],
    dpu: &DpuSpec,
) -> Result<Placement, PlaceError> {
    assert_eq!(elements.len(), constraints.len());
    let site = Site::ServerNic;
    let mut reasons: Vec<(Site, String)> = Vec::new();
    let mut first_bad: Option<String> = None;
    let mut total_units = 0.0;
    for (element, cons) in elements.iter().zip(constraints) {
        let before = reasons.len();
        if let Err(reason) = adn_backend::supports(element, Platform::Software) {
            reasons.push((
                site,
                format!(
                    "{}: does not compile to a software engine: {reason}",
                    element.name
                ),
            ));
        }
        if let Err(reason) = cons.allows(site) {
            reasons.push((
                site,
                format!("{}: constraint forbids the DPU: {reason}", element.name),
            ));
        }
        if reasons.len() > before && first_bad.is_none() {
            first_bad = Some(element.name.clone());
        }
        total_units += adn_ir::analysis::analyze(element).total_cost() as f64;
    }
    if elements.len() > dpu.max_elements {
        reasons.push((
            site,
            format!(
                "chain has {} elements; DPU program table holds {}",
                elements.len(),
                dpu.max_elements
            ),
        ));
        first_bad.get_or_insert_with(|| "<chain size>".to_owned());
    }
    if total_units > dpu.max_chain_units {
        reasons.push((
            site,
            format!(
                "chain costs {total_units:.1} units; DPU budget is {:.1}",
                dpu.max_chain_units
            ),
        ));
        first_bad.get_or_insert_with(|| "<chain cost>".to_owned());
    }
    if let Some(element) = first_bad {
        return Err(PlaceError { element, reasons });
    }
    Ok(Placement {
        sites: vec![site; elements.len()],
        cost: site.entry_cost() + total_units * DPU_SPEED,
    })
}

/// Places a chain for a hardware class: DPU-class deployments try the
/// whole-chain offload first and fall back to the per-element DP in the
/// class environment; other classes go straight to the DP.
pub fn place_for_class(
    elements: &[ElementIr],
    constraints: &[ElementConstraints],
    class: ProcessorClass,
    ebpf_policy: &EbpfPolicy,
) -> Result<ClassPlacement, PlaceError> {
    if class == ProcessorClass::Dpu {
        if let Ok(p) = place_whole_chain(elements, constraints, &DpuSpec::default()) {
            return Ok(ClassPlacement::WholeChain(p));
        }
    }
    place_with_policy(elements, constraints, &class.environment(), ebpf_policy)
        .map(ClassPlacement::PerElement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_cluster::resources::{NodeId, SmartNicSpec, SwitchId};
    use adn_dsl::parser::parse_element;
    use adn_dsl::typecheck::check_element;
    use adn_rpc::schema::RpcSchema;
    use adn_rpc::value::ValueType;

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

    fn node(id: u32, ebpf: bool, nic: bool) -> NodeSpec {
        NodeSpec {
            id: NodeId(id),
            name: format!("n{id}"),
            cpu_slots: 8,
            ebpf_capable: ebpf,
            smartnic: nic.then_some(SmartNicSpec { cpu_slots: 4 }),
        }
    }

    fn bare_env() -> Environment {
        Environment {
            client_node: node(1, false, false),
            server_node: node(2, false, false),
            switch: None,
            allow_in_app: true,
        }
    }

    fn rich_env() -> Environment {
        Environment {
            client_node: node(1, true, true),
            server_node: node(2, true, true),
            switch: Some(SwitchSpec {
                id: SwitchId(1),
                name: "tor".into(),
                programmable: true,
                table_capacity: 1024,
            }),
            allow_in_app: true,
        }
    }

    const COMPRESS: &str =
        "element Compress() { on request { SET payload = compress(input.payload); SELECT * FROM input; } }";
    const LB: &str = "element Lb() { on request { ROUTE input.object_id; SELECT * FROM input; } }";
    const FIREWALL: &str =
        "element Fw() { on request { DROP WHERE input.object_id == 13; SELECT * FROM input; } }";

    #[test]
    fn config1_everything_in_app_when_bare() {
        // Paper Figure 2 Configuration 1: no offload hardware, no trust
        // constraints → the whole chain runs inside the RPC libraries.
        let elements = vec![lower(LB), lower(COMPRESS)];
        let cons = vec![ElementConstraints::default(), ElementConstraints::default()];
        let p = place(&elements, &cons, &bare_env()).unwrap();
        assert!(
            p.sites.iter().all(|s| s.in_app()),
            "expected in-app, got {:?}",
            p.sites
        );
    }

    #[test]
    fn offapp_forces_out_of_process() {
        let elements = vec![lower(FIREWALL)];
        let cons = vec![ElementConstraints {
            constraints: vec![PlacementConstraint::OffApp],
        }];
        // Bare environment: only sidecars qualify.
        let p = place(&elements, &cons, &bare_env()).unwrap();
        assert!(matches!(
            p.sites[0],
            Site::ClientSidecar | Site::ServerSidecar
        ));
        // Rich environment: the firewall fits the switch, which beats a
        // sidecar hop hands-down (Configuration 3 flavour).
        let p = place(&elements, &cons, &rich_env()).unwrap();
        assert_eq!(p.sites[0], Site::Switch);
    }

    #[test]
    fn switch_offload_of_lb_in_rich_env() {
        // OffApp LB in a rich environment should land on the switch.
        let elements = vec![lower(LB)];
        let cons = vec![ElementConstraints {
            constraints: vec![PlacementConstraint::OffApp],
        }];
        let p = place(&elements, &cons, &rich_env()).unwrap();
        assert_eq!(p.sites[0], Site::Switch);
    }

    #[test]
    fn compression_cannot_reach_switch_or_ebpf() {
        let elements = vec![lower(COMPRESS)];
        let cons = vec![ElementConstraints {
            constraints: vec![PlacementConstraint::OffApp],
        }];
        let p = place(&elements, &cons, &rich_env()).unwrap();
        // SmartNIC runs software engines; it's the cheapest off-app option.
        assert!(
            matches!(p.sites[0], Site::ClientNic | Site::ServerNic),
            "got {:?}",
            p.sites[0]
        );
    }

    #[test]
    fn path_order_is_monotonic() {
        let elements = vec![lower(FIREWALL), lower(LB), lower(COMPRESS)];
        let cons = vec![
            ElementConstraints {
                constraints: vec![PlacementConstraint::OffApp],
            },
            ElementConstraints::default(),
            ElementConstraints {
                constraints: vec![PlacementConstraint::ReceiverSide],
            },
        ];
        let p = place(&elements, &cons, &rich_env()).unwrap();
        for w in p.sites.windows(2) {
            assert!(
                w[0].path_index() <= w[1].path_index(),
                "order violated: {:?}",
                p.sites
            );
        }
        assert!(p.sites[2].server_side());
    }

    #[test]
    fn sender_side_pin_respected() {
        let enc = lower(
            "element Enc() { on request { SET payload = encrypt(input.payload, 'k'); SELECT * FROM input; } }",
        );
        let cons = vec![ElementConstraints {
            constraints: vec![PlacementConstraint::SenderSide, PlacementConstraint::OffApp],
        }];
        let p = place(&[enc], &cons, &rich_env()).unwrap();
        assert!(p.sites[0].client_side() && !p.sites[0].in_app());
    }

    #[test]
    fn infeasible_when_constraints_conflict() {
        // OffApp + no sidecars possible? Sidecars always exist, so force a
        // conflict: sender-side pin + receiver-side pin.
        let elements = vec![lower(FIREWALL)];
        let cons = vec![ElementConstraints {
            constraints: vec![
                PlacementConstraint::SenderSide,
                PlacementConstraint::ReceiverSide,
            ],
        }];
        let err = place(&elements, &cons, &rich_env()).unwrap_err();
        assert_eq!(err.element, "Fw");
        assert!(!err.reasons.is_empty());
    }

    #[test]
    fn no_in_app_policy_pushes_everything_out() {
        let mut env = rich_env();
        env.allow_in_app = false;
        let elements = vec![lower(LB), lower(COMPRESS)];
        let cons = vec![ElementConstraints::default(), ElementConstraints::default()];
        let p = place(&elements, &cons, &env).unwrap();
        assert!(p.sites.iter().all(|s| !s.in_app()), "{:?}", p.sites);
    }

    #[test]
    fn groups_cluster_consecutive_sites() {
        let p = Placement {
            sites: vec![
                Site::ClientLib,
                Site::ClientLib,
                Site::Switch,
                Site::ServerLib,
            ],
            cost: 0.0,
        };
        assert_eq!(
            p.groups(),
            vec![
                (Site::ClientLib, 0, 2),
                (Site::Switch, 2, 3),
                (Site::ServerLib, 3, 4)
            ]
        );
    }

    #[test]
    fn restrictive_ebpf_policy_forces_native_fallback() {
        // A u64-keyed ACL compiles to eBPF; in an eBPF-only environment
        // (no NIC, no switch, no in-app) it lands in the kernel…
        let acl = lower(
            r#"
            element NumAcl() {
                state acl(object_id: u64 key, allowed: u64) init { (1, 1) };
                on request {
                    SELECT * FROM input JOIN acl ON input.object_id == acl.object_id
                    WHERE acl.allowed == 1;
                }
            }
            "#,
        );
        let cons = vec![ElementConstraints::default()];
        let env = Environment {
            client_node: node(1, true, false),
            server_node: node(2, true, false),
            switch: None,
            allow_in_app: false,
        };
        let p = place(std::slice::from_ref(&acl), &cons, &env).unwrap();
        assert!(
            matches!(p.sites[0], Site::ClientEbpf | Site::ServerEbpf),
            "default policy should offload, got {:?}",
            p.sites[0]
        );
        // …but a site policy that refuses map helpers pushes it back to a
        // native processor even though the element still compiles.
        let policy = EbpfPolicy {
            allow_map_helpers: false,
            ..EbpfPolicy::default()
        };
        let p = place_with_policy(&[acl], &cons, &env, &policy).unwrap();
        assert!(
            matches!(p.sites[0], Site::ClientSidecar | Site::ServerSidecar),
            "audited-out element must fall back, got {:?}",
            p.sites[0]
        );
    }

    #[test]
    fn proved_zero_stack_element_offloads_under_tight_budget() {
        // Pure arithmetic writes several registers but provably never
        // touches the stack, so it offloads into the kernel even under a
        // 16-byte stack budget.
        let arith = lower(
            "element A() { on request { SET object_id = input.object_id * 3 + input.object_id % 7; SELECT * FROM input; } }",
        );
        let cons = vec![ElementConstraints::default()];
        let env = Environment {
            client_node: node(1, true, false),
            server_node: node(2, true, false),
            switch: None,
            allow_in_app: false,
        };

        let proved = EbpfPolicy {
            max_stack_bytes: 16,
            ..EbpfPolicy::default()
        };
        let report = adn_verifier::ebpf::audit_element(&arith, &proved).unwrap();
        assert_eq!(report.stack_bytes, 0, "{report:?}");
        let p = place_with_policy(std::slice::from_ref(&arith), &cons, &env, &proved).unwrap();
        assert!(
            matches!(p.sites[0], Site::ClientEbpf | Site::ServerEbpf),
            "proved zero-stack element should offload, got {:?}",
            p.sites[0]
        );
    }

    #[test]
    fn ctx_bound_violation_rejects_offload_with_spanned_diagnostic() {
        // `username` is field 1, so hashing it provably needs 16 context
        // bytes. A site guaranteeing only 8 must reject the program — and
        // the diagnostic names the offending instruction slot.
        let h = lower(
            "element H() { on request { DROP WHERE hash(input.username) % 2 == 0; SELECT * FROM input; } }",
        );
        let cons = vec![ElementConstraints::default()];
        let env = Environment {
            client_node: node(1, true, false),
            server_node: node(2, true, false),
            switch: None,
            allow_in_app: false,
        };
        let tiny = EbpfPolicy {
            max_ctx_bytes: Some(8),
            ..EbpfPolicy::default()
        };
        let diags = adn_verifier::ebpf::audit_element(&h, &tiny).unwrap_err();
        assert!(
            diags
                .iter()
                .any(|d| d.code == adn_verifier::codes::EBPF_OOB && d.span.is_some()),
            "{diags:?}"
        );
        let p = place_with_policy(std::slice::from_ref(&h), &cons, &env, &tiny).unwrap();
        assert!(
            matches!(p.sites[0], Site::ClientSidecar | Site::ServerSidecar),
            "ctx-rejected element must fall back, got {:?}",
            p.sites[0]
        );

        // The same element offloads when the site's context is big enough.
        let roomy = EbpfPolicy {
            max_ctx_bytes: Some(16),
            ..EbpfPolicy::default()
        };
        let p = place_with_policy(std::slice::from_ref(&h), &cons, &env, &roomy).unwrap();
        assert!(
            matches!(p.sites[0], Site::ClientEbpf | Site::ServerEbpf),
            "got {:?}",
            p.sites[0]
        );
    }

    #[test]
    fn empty_chain_places_trivially() {
        let p = place(&[], &[], &bare_env()).unwrap();
        assert!(p.sites.is_empty());
        assert_eq!(p.cost, 0.0);
    }

    #[test]
    fn dpu_takes_a_whole_software_chain() {
        let elements = vec![lower(FIREWALL), lower(LB), lower(COMPRESS)];
        let cons = vec![ElementConstraints::default(); 3];
        let p = place_whole_chain(&elements, &cons, &DpuSpec::default()).unwrap();
        assert_eq!(p.sites, vec![Site::ServerNic; 3]);
        let cp = place_for_class(
            &elements,
            &cons,
            ProcessorClass::Dpu,
            &EbpfPolicy::default(),
        )
        .unwrap();
        assert!(cp.whole_chain());
        assert_eq!(cp.placement().sites, vec![Site::ServerNic; 3]);
    }

    #[test]
    fn dpu_refuses_sender_pinned_elements_and_falls_back() {
        let elements = vec![lower(COMPRESS), lower(FIREWALL)];
        let cons = vec![
            ElementConstraints {
                constraints: vec![PlacementConstraint::SenderSide],
            },
            ElementConstraints::default(),
        ];
        let err = place_whole_chain(&elements, &cons, &DpuSpec::default()).unwrap_err();
        assert_eq!(err.element, "Compress");
        assert!(err.reasons.iter().any(|(_, r)| r.contains("sender side")));
        // place_for_class degrades to the per-element DP, which still
        // honours the pin.
        let cp = place_for_class(
            &elements,
            &cons,
            ProcessorClass::Dpu,
            &EbpfPolicy::default(),
        )
        .unwrap();
        assert!(!cp.whole_chain());
        assert!(cp.placement().sites[0].client_side());
    }

    #[test]
    fn dpu_budget_and_program_table_are_enforced() {
        let elements: Vec<ElementIr> = (0..3).map(|_| lower(COMPRESS)).collect();
        let cons = vec![ElementConstraints::default(); 3];
        let tiny_table = DpuSpec {
            max_elements: 2,
            ..DpuSpec::default()
        };
        let err = place_whole_chain(&elements, &cons, &tiny_table).unwrap_err();
        assert!(err.reasons.iter().any(|(_, r)| r.contains("program table")));
        let tiny_budget = DpuSpec {
            max_chain_units: 0.5,
            ..DpuSpec::default()
        };
        let err = place_whole_chain(&elements, &cons, &tiny_budget).unwrap_err();
        assert!(err.reasons.iter().any(|(_, r)| r.contains("budget")));
    }

    #[test]
    fn class_environments_reflect_hardware() {
        let host = ProcessorClass::Host.environment();
        assert!(!host.available(Site::ClientEbpf) && !host.available(Site::ServerNic));
        let rich = ProcessorClass::SmartNic.environment();
        assert!(rich.available(Site::Switch) && rich.available(Site::ClientNic));
        let dpu = ProcessorClass::Dpu.environment();
        assert!(dpu.available(Site::ServerNic) && !dpu.available(Site::ClientNic));
    }
}
