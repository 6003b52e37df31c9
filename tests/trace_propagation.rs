//! In-band trace propagation under adversity: a 3-hop chain
//! (client → processor → processor → server) on a lossy, duplicating
//! fabric. The trace id minted by the client must survive the processors'
//! NAT rewrites, the dedup windows, and every retransmission — a retried
//! call id reuses the same trace id, never a fresh one.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use adn::harness::object_store_service;
use adn_dataplane::processor::{spawn_processor, NextHop, ProcessorConfig};
use adn_rpc::chaos::{ChaosLink, ChaosPolicy};
use adn_rpc::engine::{Engine, EngineChain, Verdict};
use adn_rpc::message::RpcMessage;
use adn_rpc::retry::RetryPolicy;
use adn_rpc::runtime::{spawn_server, RpcClient, ServerConfig};
use adn_rpc::transport::{InProcNetwork, Link};
use adn_rpc::value::Value;
use adn_telemetry::{HopTelemetry, Registry, Sampler, SpanRing};

struct Passthrough(&'static str);

impl Engine for Passthrough {
    fn name(&self) -> &str {
        self.0
    }
    fn process(&mut self, _msg: &mut RpcMessage) -> Verdict {
        Verdict::Forward
    }
}

#[test]
fn trace_ids_survive_nat_dedup_and_retries_across_three_hops() {
    let net = InProcNetwork::new();
    let chaos = ChaosLink::with_policy(
        Arc::new(net.clone()),
        11,
        ChaosPolicy {
            drop_prob: 0.08,
            dup_prob: 0.08,
            reorder_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
        },
    );
    let link: Arc<dyn Link> = chaos.clone();
    let svc = object_store_service();

    let svc2 = svc.clone();
    let _server = spawn_server(
        ServerConfig {
            addr: 2,
            service: svc.clone(),
            chain: EngineChain::new(),
        },
        link.clone(),
        net.attach(2),
        Box::new(move |req| {
            let m = svc2.method_by_id(req.method_id).unwrap();
            let mut resp = RpcMessage::response_to(req, m.response.clone());
            resp.set("ok", Value::Bool(true));
            resp.set("payload", Value::Bytes(vec![1]));
            resp
        }),
    );

    let telemetry = HopTelemetry {
        app: "traced".into(),
        registry: Arc::new(Registry::new()),
        spans: Arc::new(SpanRing::new(65_536)),
        sampler: Arc::new(Sampler::off()),
    };
    let chain = |name: &'static str| {
        EngineChain::from_engines(vec![Box::new(Passthrough(name)) as Box<dyn Engine>])
    };
    let _second = spawn_processor(
        ProcessorConfig::new(
            6,
            svc.clone(),
            chain("second"),
            NextHop::Fixed(2),
            NextHop::Dst,
        )
        .with_telemetry(telemetry.clone()),
        link.clone(),
        net.attach(6),
    );
    let _first = spawn_processor(
        ProcessorConfig::new(
            5,
            svc.clone(),
            chain("first"),
            NextHop::Fixed(6),
            NextHop::Dst,
        )
        .with_telemetry(telemetry.clone()),
        link.clone(),
        net.attach(5),
    );

    let client = RpcClient::new(100, link, net.attach(100), svc.clone(), EngineChain::new());
    client.set_via(Some(5));
    client.set_trace_sampling(1.0);

    let policy = RetryPolicy {
        max_attempts: 64,
        attempt_timeout: Duration::from_millis(150),
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
        deadline: Duration::from_secs(20),
        ..RetryPolicy::default()
    };
    let m = svc.method_by_id(1).unwrap();
    let mut completed = 0u64;
    for i in 0..60u64 {
        let msg = RpcMessage::request(0, 1, m.request.clone())
            .with("object_id", i)
            .with("username", "alice")
            .with("payload", b"x".to_vec());
        if client.call_resilient(msg, 2, &policy).is_ok() {
            completed += 1;
        }
    }
    assert!(
        completed >= 55,
        "retries should ride out the loss: {completed}/60 completed"
    );

    // The adversity must actually have happened for the test to mean
    // anything: frames dropped and duplicated, calls retransmitted.
    let faults = chaos.stats();
    assert!(faults.dropped > 0, "{faults:?}");
    assert!(faults.duplicated > 0, "{faults:?}");
    assert!(
        client.stats().retries > 0,
        "drops must force retransmissions"
    );

    // Let in-flight response hops land their spans.
    std::thread::sleep(Duration::from_millis(100));
    let spans = telemetry.spans.drain();
    assert!(!spans.is_empty());

    // One trace id per call id, across every retry and duplicate: the
    // client mints the root context once and retransmits identical bytes.
    let mut per_call: HashMap<u64, HashSet<u64>> = HashMap::new();
    for s in &spans {
        per_call.entry(s.call_id).or_default().insert(s.trace_id);
    }
    for (call, traces) in &per_call {
        assert_eq!(traces.len(), 1, "call {call} saw trace ids {traces:?}");
    }
    // ...and distinct calls got distinct traces.
    let distinct: HashSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    assert!(distinct.len() >= 50, "{} distinct traces", distinct.len());

    // Both hops recorded spans, and the parent chain is threaded: the
    // first hop's request span is the root (parent 0), and the second
    // hop's request span names it as parent.
    let roots: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.processor == 5 && s.parent_span == 0)
        .map(|s| (s.trace_id, s.span_id))
        .collect();
    assert!(!roots.is_empty(), "first hop must emit root spans");
    let threaded = spans
        .iter()
        .filter(|s| s.processor == 6)
        .filter(|s| roots.get(&s.trace_id) == Some(&s.parent_span))
        .count();
    assert!(
        threaded > 0,
        "second-hop spans must parent onto first-hop spans"
    );
}
