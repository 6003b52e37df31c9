//! Scale-out RPC processing (paper Figure 2, Configuration 4).
//!
//! A shard router endpoint fronts N processor instances. [`ShardRouter`] is
//! its sans-IO core: it reads the shard key, picks an instance by stable
//! hash, and routes responses for the replaced processor's in-flight calls
//! home; the frame bytes pass through untouched. Keyed element state is
//! partitioned across instances by the same hash, so each instance's state
//! tables see exactly the keys that hash to them. Two drivers exist: the
//! router thread ([`spawn_sharded`]) and the simulator (`adn-sim`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use adn_rpc::message::MessageKind;
use adn_rpc::schema::ServiceSchema;
use adn_rpc::transport::{EndpointAddr, Frame, Link};
use adn_rpc::value::Value;
use adn_rpc::wire_format;

/// Where [`ShardRouter::route`] sends one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// A request, to the instance that owns its shard key.
    Forward(EndpointAddr),
    /// A response for an in-flight call of the replaced processor, to the
    /// call's original requester.
    Home(EndpointAddr),
    /// Neither: the frame is counted and dropped.
    Refused(Refusal),
}

/// Why the router refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The envelope or the request's fields did not decode.
    Malformed,
    /// The request's method has no field at the shard index.
    NoShardField,
    /// A response with no inherited flow to route it home.
    NoFlow,
}

/// The routing decisions of one shard router, with no thread or link
/// inside.
pub struct ShardRouter {
    instances: Vec<EndpointAddr>,
    service: Arc<ServiceSchema>,
    shard_field: usize,
    /// NAT flow entries inherited from the processor this router replaced:
    /// call id → original requester, consumed as the responses return.
    flows: HashMap<u64, EndpointAddr>,
    forwarded: u64,
    /// Refusal counts, indexed by [`Refusal`].
    refused: [u64; 3],
}

impl ShardRouter {
    /// A router over `instances` hashing request field `shard_field` (by
    /// schema index), holding the replaced processor's flows.
    pub fn new(
        instances: Vec<EndpointAddr>,
        service: Arc<ServiceSchema>,
        shard_field: usize,
        inherited_flows: HashMap<u64, EndpointAddr>,
    ) -> Self {
        assert!(!instances.is_empty(), "need at least one instance");
        Self {
            instances,
            service,
            shard_field,
            flows: inherited_flows,
            forwarded: 0,
            refused: [0; 3],
        }
    }

    /// Inherited flows not yet consumed by a returning response.
    pub fn flows(&self) -> &HashMap<u64, EndpointAddr> {
        &self.flows
    }

    /// Requests routed to an instance so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Frames refused so far for `why`.
    pub fn refused(&self, why: Refusal) -> u64 {
        self.refused[why as usize]
    }

    /// Routes one frame. Responses are classified from the envelope alone;
    /// a request is decoded to read its shard field.
    pub fn route(&mut self, frame: &Frame) -> Route {
        let Ok(env) = wire_format::peek_envelope(&frame.payload) else {
            return self.refuse(Refusal::Malformed);
        };
        if env.kind == MessageKind::Response {
            return match self.flows.remove(&env.call_id) {
                Some(home) => Route::Home(home),
                None => self.refuse(Refusal::NoFlow),
            };
        }
        let Ok(msg) = wire_format::decode_message_exact(&frame.payload, &self.service) else {
            return self.refuse(Refusal::Malformed);
        };
        let Some(key) = msg.fields.get(self.shard_field) else {
            return self.refuse(Refusal::NoShardField);
        };
        self.forwarded += 1;
        Route::Forward(self.instances[shard_of(key, self.instances.len())])
    }

    fn refuse(&mut self, why: Refusal) -> Route {
        self.refused[why as usize] += 1;
        Route::Refused(why)
    }
}

/// What the router thread does next, set through its handle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Routing,
    /// Frames stay queued for a successor to drain.
    Paused,
    /// Re-emit the queue to our own address, then pause.
    Drain,
    Stopped,
}

/// The router and its mode, shared by the thread and its handle.
struct Shared {
    router: ShardRouter,
    mode: Mode,
}

/// Handle to a running shard router.
pub struct ShardedHandle {
    addr: EndpointAddr,
    shared: Arc<Mutex<Shared>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ShardedHandle {
    /// The router's address.
    pub fn addr(&self) -> EndpointAddr {
        self.addr
    }

    /// Requests routed to an instance so far.
    pub fn forwarded(&self) -> u64 {
        self.shared.lock().router.forwarded()
    }

    /// Frames refused so far for `why`.
    pub fn refused(&self, why: Refusal) -> u64 {
        self.shared.lock().router.refused(why)
    }

    /// Remaining inherited flow entries (drains as stragglers return).
    pub fn export_flows(&self) -> HashMap<u64, EndpointAddr> {
        self.shared.lock().router.flows().clone()
    }

    /// Stops routing: frames stay queued for a successor to drain.
    pub fn stop_routing(&self) {
        self.shared.lock().mode = Mode::Paused;
    }

    /// Re-emits every queued frame to this router's own address (after a
    /// successor took the address over) and waits for completion.
    pub fn drain(&self) {
        self.shared.lock().mode = Mode::Drain;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while self.shared.lock().mode == Mode::Drain && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Stops the router thread (dropping the handle stops and joins it).
    pub fn stop(self) {}
}

impl Drop for ShardedHandle {
    fn drop(&mut self) {
        self.shared.lock().mode = Mode::Stopped;
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Spawns the thread that drives `router` at `addr`. Responses do not pass
/// through the router: each instance NATs itself into the flow, so the
/// return path goes server → instance → client directly.
pub fn spawn_sharded(
    addr: EndpointAddr,
    router: ShardRouter,
    link: Arc<dyn Link>,
    frames: Receiver<Frame>,
) -> ShardedHandle {
    let shared = Arc::new(Mutex::new(Shared {
        router,
        mode: Mode::Routing,
    }));
    let t_shared = shared.clone();
    let join = std::thread::Builder::new()
        .name(format!("adn-shard-router-{addr}"))
        .spawn(move || loop {
            let mode = t_shared.lock().mode;
            match mode {
                Mode::Routing => {}
                Mode::Paused => {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                Mode::Drain => {
                    // The fabric now delivers our address to the successor.
                    while let Ok(frame) = frames.try_recv() {
                        let _ = link.send(Frame { dst: addr, ..frame });
                    }
                    let mut shared = t_shared.lock();
                    if shared.mode == Mode::Drain {
                        shared.mode = Mode::Paused;
                    }
                    continue;
                }
                Mode::Stopped => return,
            }
            let frame = match frames.recv_timeout(Duration::from_millis(20)) {
                Ok(f) => f,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            };
            let route = t_shared.lock().router.route(&frame);
            if let Route::Forward(dst) | Route::Home(dst) = route {
                let _ = link.send(Frame { dst, ..frame });
            }
        })
        .expect("spawn shard router");
    ShardedHandle {
        addr,
        shared,
        join: Some(join),
    }
}

/// Computes the shard an arbitrary key value lands on — the router's pick,
/// and how the controller partitions keyed state to match it.
pub fn shard_of(key: &Value, shards: usize) -> usize {
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
    use adn_rpc::value::ValueType;

    fn schema(fields: &[&str]) -> Arc<RpcSchema> {
        let mut b = RpcSchema::builder();
        for f in fields {
            b = b.field(*f, ValueType::U64);
        }
        Arc::new(b.build().unwrap())
    }

    fn service() -> Arc<ServiceSchema> {
        let schema = schema(&["key"]);
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

    /// An echo server at 2 and one processor per `(addr, chain)` forwarding
    /// to it.
    fn backend(
        net: &InProcNetwork,
        link: &Arc<dyn Link>,
        svc: &Arc<ServiceSchema>,
        instances: Vec<(u64, EngineChain)>,
    ) -> (
        adn_rpc::runtime::ServerHandle,
        Vec<crate::processor::ProcessorHandle>,
    ) {
        let svc2 = svc.clone();
        let server = spawn_server(
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
                resp.set("key", req.get("key").unwrap().clone());
                resp
            }),
        );
        let handles = instances
            .into_iter()
            .map(|(addr, chain)| {
                spawn_processor(
                    ProcessorConfig {
                        addr,
                        service: svc.clone(),
                        chain,
                        request_next: NextHop::Fixed(2),
                        response_next: NextHop::Dst,
                        initial_flows: Default::default(),
                        telemetry: None,
                        clock: None,
                        batch_max: DEFAULT_BATCH_MAX,
                        overload: Default::default(),
                    },
                    link.clone(),
                    net.attach(addr),
                )
            })
            .collect();
        (server, handles)
    }

    #[test]
    fn sharding_is_consistent_and_covers_instances() {
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();

        // Two processor instances at 10, 11 with key recorders.
        let seen_a = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen_b = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let recorder = |seen: &Arc<parking_lot::Mutex<Vec<u64>>>| {
            EngineChain::from_engines(vec![Box::new(KeyRecorder { seen: seen.clone() })])
        };
        let _backend = backend(
            &net,
            &link,
            &svc,
            vec![(10, recorder(&seen_a)), (11, recorder(&seen_b))],
        );

        // Router at 5.
        let router_frames = net.attach(5);
        let router = spawn_sharded(
            5,
            ShardRouter::new(vec![10, 11], svc.clone(), 0, Default::default()),
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
        assert_eq!(router.refused(Refusal::Malformed), 0);
    }

    /// A request whose method's schema is shorter than the shard index, a
    /// frame that does not decode and a response nobody is waiting for are
    /// each counted and dropped; the router thread keeps serving.
    #[test]
    fn refused_frames_are_counted_and_the_router_keeps_serving() {
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let (long, short) = (schema(&["key", "tag"]), schema(&["key"]));
        let method = |id, name: &str, request: &Arc<RpcSchema>| MethodDef {
            id,
            name: name.into(),
            request: request.clone(),
            response: short.clone(),
        };
        let svc = Arc::new(
            ServiceSchema::new(
                "KV",
                vec![method(1, "Put", &long), method(2, "Get", &short)],
            )
            .unwrap(),
        );
        let _backend = backend(&net, &link, &svc, vec![(10, EngineChain::new())]);
        let router = spawn_sharded(
            5,
            ShardRouter::new(vec![10], svc.clone(), 1, Default::default()),
            link.clone(),
            net.attach(5),
        );
        let client = RpcClient::new(
            1,
            link.clone(),
            net.attach(1),
            svc.clone(),
            EngineChain::new(),
        );

        // Get has no field 1 to shard on.
        let get = RpcMessage::request(0, 2, short.clone()).with("key", 7u64);
        let _unanswered = client.send_call(get, 5).unwrap();
        link.send(Frame {
            src: 1,
            dst: 5,
            payload: vec![0xff; 3],
        })
        .unwrap();
        let mut stray = RpcMessage::request(99, 2, short.clone()).with("key", 7u64);
        stray.kind = MessageKind::Response;
        link.send(Frame {
            src: 2,
            dst: 5,
            payload: wire_format::encode_message_to_vec(&stray).unwrap(),
        })
        .unwrap();

        // Frames route in arrival order: once this answers, all three
        // refusals have been counted.
        let put = RpcMessage::request(0, 1, long)
            .with("key", 7u64)
            .with("tag", 1u64);
        let resp = client
            .send_call(put, 5)
            .and_then(|p| p.wait(Duration::from_secs(5)))
            .expect("the router must survive the refused frames");
        assert_eq!(resp.get("key"), Some(&Value::U64(7)));
        let refused = [Refusal::Malformed, Refusal::NoShardField, Refusal::NoFlow];
        assert_eq!(refused.map(|why| router.refused(why)), [1, 1, 1]);
        assert_eq!(router.forwarded(), 1);
    }
}
