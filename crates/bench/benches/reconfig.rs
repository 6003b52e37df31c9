//! Reconfiguration cost (paper §5.2): one criterion iteration performs a
//! full lossless processor migration — pause, snapshot, successor with
//! imported state, address takeover, drain, retire.

use std::sync::Arc;
use std::time::Duration;

use adn::harness::{object_store_schemas, object_store_service};
use adn_backend::native::{compile_element, CompileOpts};
use adn_controller::reconfig::migrate_processor;
use adn_dataplane::processor::{
    spawn_processor, NextHop, ProcessorConfig, ProcessorHandle, DEFAULT_BATCH_MAX,
};
use adn_rpc::engine::EngineChain;
use adn_rpc::message::RpcMessage;
use adn_rpc::transport::{InProcNetwork, Link};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let (req_schema, resp_schema) = object_store_schemas();
    let service = object_store_service();
    let net = InProcNetwork::new();
    let link: Arc<dyn Link> = Arc::new(net.clone());

    let element = adn_elements::build("Metrics", &[], &req_schema, &resp_schema).expect("build");
    let make_chain = {
        let element = element.clone();
        move || {
            let mut chain = EngineChain::new();
            chain.push(Box::new(compile_element(
                &element,
                &CompileOpts {
                    seed: 1,
                    replicas: vec![],
                    ..Default::default()
                },
            )));
            chain
        }
    };

    // Seed a processor with some state so snapshots are non-trivial.
    let spawn_seeded = |net: &InProcNetwork, link: &Arc<dyn Link>| -> ProcessorHandle {
        let frames = net.attach(50);
        let mut chain = make_chain();
        // Pre-populate the metrics table via direct engine invocations.
        {
            let engine = chain.engine_mut(0).expect("engine");
            let m = service.method_by_id(1).expect("method");
            for i in 0..500u64 {
                let mut msg = RpcMessage::request(1, 1, m.request.clone())
                    .with("object_id", i)
                    .with("username", format!("user{}", i % 50))
                    .with("payload", vec![]);
                let _ = engine.process(&mut msg);
            }
        }
        spawn_processor(
            ProcessorConfig {
                addr: 50,
                service: service.clone(),
                chain,
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
        )
    };

    let mut group = c.benchmark_group("reconfig");
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(5));
    group.bench_function("migrate_processor_500_rows", |b| {
        b.iter_batched(
            || spawn_seeded(&net, &link),
            |processor| {
                let successor = migrate_processor(
                    processor,
                    make_chain.clone(),
                    &net,
                    link.clone(),
                    service.clone(),
                    NextHop::Fixed(200),
                )
                .expect("migrate");
                successor.stop();
            },
            criterion::BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
