//! Real-thread reconfiguration smoke for paper §5.2's claim:
//! reconfiguration (migration, scale-out, scale-in) does not disrupt the
//! application — zero lost calls, element state preserved exactly.
//!
//! The load here is synchronous — batches of calls between each
//! reconfiguration step — so the test needs no background threads and no
//! wall-clock sleeps. The harder variant, with calls *in flight during*
//! every reconfiguration (plus crashes and chaos), runs per-event on the
//! deterministic simulator: see
//! `reconfig_scenario_is_zero_loss_through_migration_and_scaleout` in
//! `tests/sim_invariants.rs`.

use std::sync::Arc;
use std::time::Duration;

use adn::harness::{object_store_schemas, object_store_service};
use adn_backend::native::{compile_element, CompileOpts};
use adn_controller::deploy::AddrAllocator;
use adn_controller::reconfig::{migrate_processor, scale_in, scale_out};
use adn_dataplane::processor::{spawn_processor, NextHop, ProcessorConfig, DEFAULT_BATCH_MAX};
use adn_rpc::engine::EngineChain;
use adn_rpc::message::RpcMessage;
use adn_rpc::runtime::{spawn_server, RpcClient, ServerConfig};
use adn_rpc::transport::{InProcNetwork, Link};
use adn_rpc::value::Value;

const USERS: [&str; 6] = ["alice", "carol", "dave", "u4", "u5", "u6"];

struct Rig {
    net: InProcNetwork,
    link: Arc<dyn Link>,
    service: Arc<adn_rpc::schema::ServiceSchema>,
    client: Arc<RpcClient>,
    element: adn_ir::ElementIr,
    _server: adn_rpc::runtime::ServerHandle,
}

fn rig() -> Rig {
    let (req_schema, resp_schema) = object_store_schemas();
    let service = object_store_service();
    let net = InProcNetwork::new();
    let link: Arc<dyn Link> = Arc::new(net.clone());

    let server_frames = net.attach(200);
    let svc = service.clone();
    let server = spawn_server(
        ServerConfig {
            addr: 200,
            service: service.clone(),
            chain: EngineChain::new(),
        },
        link.clone(),
        server_frames,
        Box::new(move |req| {
            let m = svc.method_by_id(req.method_id).unwrap();
            let mut resp = RpcMessage::response_to(req, m.response.clone());
            resp.set("ok", Value::Bool(true));
            resp
        }),
    );

    let element = adn_elements::build("Metrics", &[], &req_schema, &resp_schema).unwrap();
    let client_frames = net.attach(100);
    let client = RpcClient::new(
        100,
        link.clone(),
        client_frames,
        service.clone(),
        EngineChain::new(),
    );
    client.set_via(Some(50));

    Rig {
        net,
        link,
        service,
        client,
        element,
        _server: server,
    }
}

fn make_chain(element: &adn_ir::ElementIr) -> EngineChain {
    let mut chain = EngineChain::new();
    chain.push(Box::new(compile_element(
        element,
        &CompileOpts {
            seed: 1,
            replicas: vec![],
            ..Default::default()
        },
    )));
    chain
}

/// Issues `n` synchronous calls starting at object id `start`; every one
/// must succeed (strict zero loss — a single failure panics).
fn run_calls(rig: &Rig, start: u64, n: u64) {
    let m = rig.service.method_by_id(1).unwrap();
    for i in start..start + n {
        let msg = RpcMessage::request(0, 1, m.request.clone())
            .with("object_id", i)
            .with("username", USERS[(i % 6) as usize])
            .with("payload", b"x".to_vec());
        rig.client
            .send_call(msg, 200)
            .and_then(|p| p.wait(Duration::from_secs(10)))
            .unwrap_or_else(|e| panic!("call {i} lost during reconfiguration: {e}"));
    }
}

#[test]
fn migrate_scale_out_scale_in_loses_nothing() {
    let rig = rig();
    let frames = rig.net.attach(50);
    let processor = spawn_processor(
        ProcessorConfig {
            addr: 50,
            service: rig.service.clone(),
            chain: make_chain(&rig.element),
            request_next: NextHop::Fixed(200),
            response_next: NextHop::Dst,
            initial_flows: Default::default(),
            telemetry: None,
            clock: None,
            batch_max: DEFAULT_BATCH_MAX,
            overload: Default::default(),
        },
        rig.link.clone(),
        frames,
    );
    run_calls(&rig, 0, 36);

    // Migrate.
    let element = rig.element.clone();
    let processor = migrate_processor(
        processor,
        move || make_chain(&element),
        &rig.net,
        rig.link.clone(),
        rig.service.clone(),
        NextHop::Fixed(200),
    )
    .unwrap();
    run_calls(&rig, 36, 36);

    // Scale out to 3 keyed shards.
    let alloc = AddrAllocator::new(5000);
    let group = scale_out(
        &processor,
        std::slice::from_ref(&rig.element),
        1,
        3,
        9,
        &[],
        &rig.net,
        rig.link.clone(),
        rig.service.clone(),
        NextHop::Fixed(200),
        &alloc,
        None,
    )
    .unwrap();
    processor.stop();
    run_calls(&rig, 72, 60);

    // Scale back in.
    let merged = scale_in(
        group,
        std::slice::from_ref(&rig.element),
        9,
        &[],
        &rig.net,
        rig.link.clone(),
        rig.service.clone(),
        NextHop::Fixed(200),
    )
    .unwrap();
    run_calls(&rig, 132, 36);
    let ok = 36 + 36 + 60 + 36u64;

    // State correctness: total hit count across users equals calls that
    // passed the Metrics element — counters survived a migration, a keyed
    // split into three shards, and a merge back. Decode and sum.
    let images = merged.export_state().unwrap();
    merged.stop();
    let mut table = adn_backend::state::StateTable::new(adn_ir::TableIr {
        init_rows: vec![],
        ..rig.element.tables[0].clone()
    });
    // NativeEngine image: varint table count + length-prefixed snapshots.
    let mut dec = adn_wire::codec::Decoder::new(&images[0]);
    assert_eq!(dec.get_varint().unwrap(), 1);
    table.restore(dec.get_bytes().unwrap()).unwrap();
    let total: u64 = table.scan().map(|row| row[1].as_u64().unwrap()).sum();
    assert_eq!(
        total, ok,
        "per-user counters must account for every successful call"
    );
    assert_eq!(table.len(), USERS.len());
}
