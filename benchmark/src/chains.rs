//! From a workload's DSL chain to engines, through the controller's own
//! compile path, so the forwarding workloads and the reference chains run
//! what a deployment would run.

use adn::cluster::resources::{AdnConfig, ElementSpec, PlacementConstraint};
use adn::controller::compile::{compile_app, CompiledApp};
use adn::controller::deploy::build_engine;
use adn::controller::placement::Site;
use adn::harness::object_store_schemas;
use adn::rpc::engine::{Engine, EngineChain};

use crate::corpus::{Workload, TAGGER_DSL};

/// Destination replica the RPC workload's server listens on (`AdnWorld`'s
/// first replica). No workload chain routes, so it only fills a parameter.
pub const REPLICA: u64 = 200;

/// DSL source of one chain entry: `Tagger` is the benchmark's own element,
/// every other name is looked up in the standard catalog.
pub fn source_of(name: &str) -> &'static str {
    match name {
        "Tagger" => TAGGER_DSL,
        _ => adn::elements::dsl_source(name).expect("catalog element"),
    }
}

/// The workload's chain as the `AdnConfig` an application would apply.
/// Every element is `OffApp`, so a deployment lands on one sidecar
/// processor instead of inside the client library.
pub fn specs(w: &Workload) -> Vec<ElementSpec> {
    w.chain
        .iter()
        .map(|&name| ElementSpec {
            element: name.to_owned(),
            source: (name == "Tagger").then(|| TAGGER_DSL.to_owned()),
            args: vec![],
            constraints: vec![PlacementConstraint::OffApp],
        })
        .collect()
}

/// DSL → verified, optimised IR: parse, typecheck, lower, optimise, verify.
/// `seed` feeds the engines' `random()`, so the seed predicts every fault.
pub fn compile(w: &Workload, seed: u64) -> CompiledApp {
    let (request, response) = object_store_schemas();
    let config = AdnConfig {
        app: "app".into(),
        src_service: "frontend".into(),
        dst_service: "storage".into(),
        chain: specs(w),
        seed,
    };
    compile_app(&config, request, response).expect("workload chain compiles")
}

/// IR → engines at the default execution tier, seeded per element exactly
/// as the controller's deployer seeds them.
pub fn engines(app: &CompiledApp) -> Vec<Box<dyn Engine>> {
    app.chain
        .elements
        .iter()
        .enumerate()
        .map(|(i, element)| {
            build_engine(element, Site::ClientSidecar, app, i, &[REPLICA])
                .expect("software engine builds")
        })
        .collect()
}

pub fn engine_chain(app: &CompiledApp) -> EngineChain {
    EngineChain::from_engines(engines(app))
}
