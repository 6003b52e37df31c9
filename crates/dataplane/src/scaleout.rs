//! Scale-out RPC processing (paper Figure 2, Configuration 4).
//!
//! A shard router endpoint fronts N processor instances. The router decodes
//! only as much as it needs (the shard key), picks an instance by stable
//! hash, and forwards the original frame bytes untouched. Keyed element
//! state is partitioned across instances by the same hash, so each
//! instance's state tables see exactly the keys that hash to them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;

use adn_rpc::message::MessageKind;
use adn_rpc::schema::ServiceSchema;
use adn_rpc::transport::{EndpointAddr, Frame, Link};
use adn_rpc::wire_format;

/// Configuration for [`spawn_sharded`].
pub struct ShardedConfig {
    /// The router's flat address (what clients send to).
    pub addr: EndpointAddr,
    /// Addresses of the processor instances behind the router.
    pub instances: Vec<EndpointAddr>,
    /// Service schema (the router decodes the envelope + shard field).
    pub service: Arc<ServiceSchema>,
    /// Request field (by schema index) whose stable hash picks the
    /// instance, so keyed state stays local. Must be in range for every
    /// method's request schema.
    pub shard_field: usize,
    /// NAT flow entries inherited from the processor this router replaced:
    /// in-flight responses addressed to the old processor are routed back
    /// to their original requesters.
    pub inherited_flows: std::collections::HashMap<u64, EndpointAddr>,
}

/// Handle to a running shard router.
pub struct ShardedHandle {
    addr: EndpointAddr,
    stop: Arc<std::sync::atomic::AtomicBool>,
    paused: Arc<std::sync::atomic::AtomicBool>,
    drain_req: Arc<std::sync::atomic::AtomicBool>,
    drain_done: Arc<std::sync::atomic::AtomicBool>,
    forwarded: Arc<AtomicU64>,
    flows: Arc<parking_lot::Mutex<std::collections::HashMap<u64, EndpointAddr>>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ShardedHandle {
    /// The router's address.
    pub fn addr(&self) -> EndpointAddr {
        self.addr
    }

    /// Frames forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// Remaining inherited flow entries (drains as stragglers return).
    pub fn export_flows(&self) -> std::collections::HashMap<u64, EndpointAddr> {
        self.flows.lock().clone()
    }

    /// Stops forwarding new requests (they stay queued for a successor to
    /// drain); inherited-flow responses keep flowing home.
    pub fn stop_routing(&self) {
        self.paused.store(true, Ordering::Relaxed);
    }

    /// Re-emits every queued frame to this router's own address (after a
    /// successor took the address over) and waits for completion.
    pub fn drain(&self) {
        self.drain_req.store(true, Ordering::Relaxed);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !self.drain_done.load(Ordering::Relaxed) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Stops the router thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ShardedHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Spawns the shard router. Responses do not pass through the router: each
/// instance NATs itself into the flow, so the return path goes
/// server → instance → client directly.
pub fn spawn_sharded(
    config: ShardedConfig,
    link: Arc<dyn Link>,
    frames: Receiver<Frame>,
) -> ShardedHandle {
    assert!(!config.instances.is_empty(), "need at least one instance");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let forwarded = Arc::new(AtomicU64::new(0));
    let flows = Arc::new(parking_lot::Mutex::new(config.inherited_flows.clone()));
    let addr = config.addr;

    let paused = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let drain_req = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let drain_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let t_stop = stop.clone();
    let t_paused = paused.clone();
    let t_drain_req = drain_req.clone();
    let t_drain_done = drain_done.clone();
    let t_forwarded = forwarded.clone();
    let t_flows = flows.clone();
    let join = std::thread::Builder::new()
        .name(format!("adn-shard-router-{addr}"))
        .spawn(move || {
            let ShardedConfig {
                addr: addr_for_drain,
                instances,
                service,
                shard_field,
                inherited_flows: _,
            } = config;
            while !t_stop.load(Ordering::Relaxed) {
                if t_drain_req.load(Ordering::Relaxed) && !t_drain_done.load(Ordering::Relaxed) {
                    // Re-emit queued frames to our own address; the fabric
                    // now delivers them to the successor.
                    let self_addr = addr_for_drain;
                    while let Ok(frame) = frames.try_recv() {
                        let _ = link.send(Frame {
                            src: frame.src,
                            dst: self_addr,
                            payload: frame.payload,
                        });
                    }
                    t_drain_done.store(true, Ordering::Relaxed);
                }
                if t_paused.load(Ordering::Relaxed) {
                    // Leave requests queued for the successor's drain.
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let frame = match frames.recv_timeout(Duration::from_millis(20)) {
                    Ok(f) => f,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                };
                // Decode just enough to shard; forward the original bytes.
                let Ok(msg) = wire_format::decode_message_exact(&frame.payload, &service) else {
                    continue;
                };
                if msg.kind != MessageKind::Request {
                    // A response for an in-flight call of the processor
                    // this router replaced: route it home.
                    if let Some(orig_src) = t_flows.lock().remove(&msg.call_id) {
                        let _ = link.send(Frame {
                            src: frame.src,
                            dst: orig_src,
                            payload: frame.payload,
                        });
                    }
                    continue;
                }
                let hash = msg.fields[shard_field].stable_hash();
                let instance = instances[(hash % instances.len() as u64) as usize];
                if link
                    .send(Frame {
                        src: frame.src,
                        dst: instance,
                        payload: frame.payload,
                    })
                    .is_ok()
                {
                    t_forwarded.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
        .expect("spawn shard router");

    ShardedHandle {
        addr,
        stop,
        paused,
        drain_req,
        drain_done,
        forwarded,
        flows,
        join: Some(join),
    }
}

/// Computes the shard an arbitrary key value lands on — used by the
/// controller to partition keyed state consistently with the router.
pub fn shard_of(key: &adn_rpc::value::Value, shards: usize) -> usize {
    (key.stable_hash() % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::processor::{spawn_processor, NextHop, ProcessorConfig, DEFAULT_BATCH_MAX};
    use adn_rpc::engine::{Engine, EngineChain, Verdict};
    use adn_rpc::message::RpcMessage;
    use adn_rpc::runtime::{spawn_server, RpcClient, ServerConfig};
    use adn_rpc::schema::{MethodDef, RpcSchema};
    use adn_rpc::transport::InProcNetwork;
    use adn_rpc::value::{Value, ValueType};

    fn service() -> Arc<ServiceSchema> {
        let schema = Arc::new(
            RpcSchema::builder()
                .field("key", ValueType::U64)
                .build()
                .unwrap(),
        );
        Arc::new(
            ServiceSchema::new(
                "KV",
                vec![MethodDef {
                    id: 1,
                    name: "Get".into(),
                    request: schema.clone(),
                    response: schema,
                }],
            )
            .unwrap(),
        )
    }

    struct KeyRecorder {
        seen: Arc<parking_lot::Mutex<Vec<u64>>>,
    }
    impl Engine for KeyRecorder {
        fn name(&self) -> &str {
            "key_recorder"
        }
        fn process(&mut self, msg: &mut RpcMessage) -> Verdict {
            if msg.kind == MessageKind::Request {
                if let Some(Value::U64(k)) = msg.get("key") {
                    self.seen.lock().push(*k);
                }
            }
            Verdict::Forward
        }
    }

    #[test]
    fn sharding_is_consistent_and_covers_instances() {
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();

        // Server at 2.
        let server_frames = net.attach(2);
        let svc2 = svc.clone();
        let _server = spawn_server(
            ServerConfig {
                addr: 2,
                service: svc.clone(),
                chain: EngineChain::new(),
            },
            link.clone(),
            server_frames,
            Box::new(move |req| {
                let m = svc2.method_by_id(1).unwrap();
                let mut resp = RpcMessage::response_to(req, m.response.clone());
                resp.set("key", req.get("key").unwrap().clone());
                resp
            }),
        );

        // Two processor instances at 10, 11 with key recorders.
        let seen_a = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen_b = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (addr, seen) in [(10u64, seen_a.clone()), (11, seen_b.clone())] {
            let frames = net.attach(addr);
            handles.push(spawn_processor(
                ProcessorConfig {
                    addr,
                    service: svc.clone(),
                    chain: EngineChain::from_engines(vec![Box::new(KeyRecorder { seen })]),
                    request_next: NextHop::Fixed(2),
                    response_next: NextHop::Dst,
                    initial_flows: Default::default(),
                    telemetry: None,
                    clock: None,
                    batch_max: DEFAULT_BATCH_MAX,
                    overload: Default::default(),
                },
                link.clone(),
                frames,
            ));
        }

        // Router at 5.
        let router_frames = net.attach(5);
        let router = spawn_sharded(
            ShardedConfig {
                addr: 5,
                instances: vec![10, 11],
                service: svc.clone(),
                shard_field: 0,
                inherited_flows: Default::default(),
            },
            link.clone(),
            router_frames,
        );

        // Client at 1.
        let client_frames = net.attach(1);
        let client = RpcClient::new(1, link, client_frames, svc.clone(), EngineChain::new());
        let m = svc.method_by_id(1).unwrap();

        for k in 0..40u64 {
            let msg = RpcMessage::request(0, 1, m.request.clone()).with("key", k);
            let resp = client.call(msg, 5).unwrap();
            assert_eq!(resp.get("key"), Some(&Value::U64(k)));
        }

        let a = seen_a.lock().clone();
        let b = seen_b.lock().clone();
        assert_eq!(a.len() + b.len(), 40);
        assert!(
            !a.is_empty() && !b.is_empty(),
            "both shards should see traffic"
        );
        // Consistency: every key landed on the shard `shard_of` predicts.
        for k in a {
            assert_eq!(shard_of(&Value::U64(k), 2), 0, "key {k} misrouted");
        }
        for k in b {
            assert_eq!(shard_of(&Value::U64(k), 2), 1, "key {k} misrouted");
        }
        assert_eq!(router.forwarded(), 40);
    }
}
