//! The forwarding workloads: one generator thread, one processor, closed
//! loop. The generator keeps `window` requests outstanding; forwarded
//! requests and aborted replies both come back to its own endpoint.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;

use adn::dataplane::processor::{spawn_processor, NextHop, ProcessorConfig, ProcessorHandle};
use adn::rpc::engine::Verdict;
use adn::rpc::message::{MessageKind, RpcMessage, RpcStatus};
use adn::rpc::schema::ServiceSchema;
use adn::rpc::transport::{Frame, InProcNetwork, Link, TcpLink};
use adn::rpc::value::Value;
use adn::rpc::wire_format::{decode_message_exact, peek_envelope};

use crate::alloc;
use crate::chains;
use crate::corpus::{Corpus, Kind, Transport, Workload, CALL_BASE, LOADGEN, PROC};
use crate::load::{stats_delta, Failures, Latency, LoadResult, Phase, PhaseKind, PhaseResult};
use crate::spans::Recorder;

/// One frame in this many is decoded in full and compared with the sent
/// message; every frame has its envelope checked.
const FULL_CHECK_EVERY: u64 = 64;
/// One ring slot in this many contributes latency samples.
const LATENCY_EVERY: usize = 8;

/// How long the generator sleeps when it has nothing to send or receive.
const POLL: Duration = Duration::from_micros(100);

/// A running forwarding deployment.
pub struct ForwardSystem {
    net: InProcNetwork,
    /// The link the generator sends on (the fabric, or a TCP socket).
    link: Arc<dyn Link>,
    /// The generator's endpoint: every completion arrives here.
    rx: Receiver<Frame>,
    processor: ProcessorHandle,
    tcp: Option<(Arc<TcpLink>, Arc<TcpLink>)>,
}

impl ForwardSystem {
    /// DSL source to a serving processor: compile the workload's chain,
    /// build its engines, wire the links, spawn.
    pub fn start(w: &Workload, service: &Arc<ServiceSchema>, seed: u64) -> Self {
        let Kind::Forward(transport) = w.kind else {
            panic!("{} is not a forwarding workload", w.name);
        };
        let chain = chains::engine_chain(&chains::compile(w, seed));
        let net = InProcNetwork::new();
        let rx = net.attach(LOADGEN);
        let fabric: Arc<dyn Link> = Arc::new(net.clone());
        let config = ProcessorConfig::new(PROC, service.clone(), chain, NextHop::Dst, NextHop::Dst);
        match transport {
            Transport::InProc => {
                let frames = net.attach(PROC);
                let processor = spawn_processor(config, fabric.clone(), frames);
                Self {
                    net,
                    link: fabric,
                    rx,
                    processor,
                    tcp: None,
                }
            }
            Transport::TcpLoopback => {
                // The generator's host and the processor's host: frames
                // cross one loopback connection, the processor's output
                // stays on the fabric.
                let near = TcpLink::bind("127.0.0.1:0").expect("bind generator host");
                let far = TcpLink::bind("127.0.0.1:0").expect("bind processor host");
                near.add_route(PROC, far.local_addr());
                let processor = spawn_processor(config, fabric, far.incoming().clone());
                Self {
                    net,
                    link: near.clone(),
                    rx,
                    processor,
                    tcp: Some((near, far)),
                }
            }
        }
    }

    pub fn processor(&self) -> &ProcessorHandle {
        &self.processor
    }

    /// Frames dropped at full inbound queues, on every link in use.
    pub fn inbound_drops(&self) -> u64 {
        let tcp = self
            .tcp
            .as_ref()
            .map_or(0, |(near, far)| near.inbound_drops() + far.inbound_drops());
        self.net.inbound_drops() + tcp
    }

    /// Sends one frame and waits for it: the last step of a set-up, and the
    /// proof that the deployment serves. It is the ring's last slot, which
    /// the run reaches only after the dedup window has forgotten it.
    pub fn first_message(&self, corpus: &Corpus) -> Result<(), String> {
        let frame = corpus.frames.last().expect("ring is not empty");
        self.link
            .send(frame.clone())
            .map_err(|e| format!("first send: {e}"))?;
        // Polled, not parked on: a wake-up through the hypervisor costs as
        // much as the whole set-up and would be timed in its place.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if self.rx.try_recv().is_ok() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("first message never came back".to_owned());
            }
            std::thread::yield_now();
        }
    }

    pub fn stop(self) {
        self.processor.stop();
        if let Some((near, far)) = self.tcp {
            near.close();
            far.close();
        }
    }
}

/// What the seed predicts for one ring slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// 0 = forwarded; otherwise the abort code.
    pub abort_code: u32,
    /// `object_id` after the chain ran.
    pub object_id: u64,
}

/// Runs a second instance of the workload's chain over the ring, in ring
/// order, and records each slot's verdict and the chain's one documented
/// write. The forwarding chains hold no verdict-relevant state, so the
/// prediction holds however often a slot is recycled.
pub fn expectations(w: &Workload, corpus: &Corpus, seed: u64) -> Vec<Expect> {
    let mut reference = chains::engine_chain(&chains::compile(w, seed));
    corpus
        .frames
        .iter()
        .map(|frame| {
            let mut msg =
                decode_message_exact(&frame.payload, &corpus.service).expect("corpus decodes");
            let abort_code = match reference.process(&mut msg) {
                Verdict::Forward => 0,
                Verdict::Abort { code, .. } => code,
                other => panic!("workload chains never drop or shed, got {other:?}"),
            };
            let object_id = match msg.get("object_id") {
                Some(Value::U64(id)) => *id,
                other => panic!("object_id is a u64, got {other:?}"),
            };
            Expect {
                abort_code,
                object_id,
            }
        })
        .collect()
}

/// Share of ring slots the chain forwards (exact, seed-determined).
pub fn forward_share(expect: &[Expect]) -> f64 {
    expect.iter().filter(|e| e.abort_code == 0).count() as f64 / expect.len() as f64
}

struct Generator<'a> {
    w: &'a Workload,
    corpus: &'a Corpus,
    expect: &'a [Expect],
    epoch: Instant,
    /// Send time of each slot's latest use, ns since `epoch`.
    sent_at: Vec<u64>,
    /// Requests in flight per slot; anything else arriving is a failure.
    outstanding: Vec<u8>,
    cursor: usize,
    in_flight: usize,
    attempted: u64,
    arrivals: u64,
    failures: Failures,
    /// Payload buffers of arrived frames, reused for the next sends.
    spare: Vec<Vec<u8>>,
    // Per phase.
    completed: u64,
    payload_bytes: u64,
    latency_ns: Vec<u32>,
}

impl Generator<'_> {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn send_chunk(&mut self, link: &dyn Link, now: Instant) {
        let now_ns = self.ns(now);
        let ring = &self.corpus.frames;
        let mut batch = Vec::with_capacity(self.w.chunk);
        for _ in 0..self.w.chunk {
            let slot = self.cursor;
            self.cursor = (self.cursor + 1) % ring.len();
            self.sent_at[slot] = now_ns;
            self.outstanding[slot] += 1;
            // Arrived buffers carry the next requests out, so the generator
            // copies bytes but leaves the allocator alone.
            let mut payload = self.spare.pop().unwrap_or_default();
            payload.clear();
            payload.extend_from_slice(&ring[slot].payload);
            batch.push(Frame {
                payload,
                ..ring[slot]
            });
        }
        let accepted = link.send_batch(batch);
        self.attempted += self.w.chunk as u64;
        self.in_flight += self.w.chunk;
        let refused = self.w.chunk - accepted;
        if refused > 0 {
            // Which frames were refused is not reported, so their slots stay
            // marked outstanding; the run has failed either way.
            self.in_flight -= refused;
            self.failures
                .add(refused as u64, || format!("link refused {refused} frames"));
        }
    }

    /// Accounts for one frame arriving at the generator's endpoint.
    fn arrive(&mut self, frame: Frame, now_ns: u64) {
        self.account(&frame, now_ns);
        if self.spare.len() < self.w.window {
            self.spare.push(frame.payload);
        }
    }

    fn account(&mut self, frame: &Frame, now_ns: u64) {
        self.arrivals += 1;
        let env = match peek_envelope(&frame.payload) {
            Ok(env) => env,
            Err(e) => {
                self.failures.add(1, || format!("undecodable frame: {e}"));
                return;
            }
        };
        let slot = match env.call_id.checked_sub(CALL_BASE) {
            Some(s) if (s as usize) < self.outstanding.len() => s as usize,
            _ => {
                self.failures
                    .add(1, || format!("unknown call id {}", env.call_id));
                return;
            }
        };
        if self.outstanding[slot] == 0 {
            self.failures
                .add(1, || format!("slot {slot} completed twice"));
            return;
        }
        self.outstanding[slot] -= 1;
        self.in_flight -= 1;
        self.completed += 1;
        let expect = self.expect[slot];
        let forwarded = env.kind == MessageKind::Request && !env.aborted;
        let aborted = env.kind == MessageKind::Response && env.aborted;
        if forwarded && expect.abort_code == 0 {
            self.payload_bytes += self.w.payload_len as u64;
        } else if !(aborted && expect.abort_code != 0) {
            self.failures.add(1, || {
                format!(
                    "slot {slot}: expected abort code {}, got kind {:?} aborted {}",
                    expect.abort_code, env.kind, env.aborted
                )
            });
            return;
        }
        if slot.is_multiple_of(LATENCY_EVERY) {
            let ns = now_ns.saturating_sub(self.sent_at[slot]);
            self.latency_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
        if self.arrivals.is_multiple_of(FULL_CHECK_EVERY) {
            if let Err(why) = self.full_check(slot, frame, expect) {
                self.failures.add(1, || format!("slot {slot}: {why}"));
            }
        }
    }

    /// Decodes the arrived frame and the sent one and requires them equal
    /// but for what the hop is documented to change: the NAT'd source and
    /// the chain's write to `object_id`.
    fn full_check(&self, slot: usize, frame: &Frame, expect: Expect) -> Result<(), String> {
        let service = &self.corpus.service;
        let got = decode_message_exact(&frame.payload, service).map_err(|e| e.to_string())?;
        let sent: RpcMessage = decode_message_exact(&self.corpus.frames[slot].payload, service)
            .map_err(|e| e.to_string())?;
        if expect.abort_code == 0 {
            let mut want = sent;
            want.src = PROC;
            want.set("object_id", Value::U64(expect.object_id));
            if got != want {
                return Err("forwarded message differs from the sent one".to_owned());
            }
        } else {
            let code = match &got.status {
                RpcStatus::Aborted { code, .. } => *code,
                other => return Err(format!("status {other:?}")),
            };
            if code != expect.abort_code || got.call_id != sent.call_id || got.dst != LOADGEN {
                return Err(format!(
                    "abort code {code}, want {}; call {} to {}",
                    expect.abort_code, got.call_id, got.dst
                ));
            }
        }
        Ok(())
    }
}

/// Drives `phases` back to back without draining in between, then drains.
pub fn run(
    sys: &ForwardSystem,
    w: &Workload,
    corpus: &Corpus,
    expect: &[Expect],
    phases: &[Phase],
    mut recorder: Option<&mut Recorder>,
) -> LoadResult {
    let ring_len = corpus.frames.len();
    let mut g = Generator {
        w,
        corpus,
        expect,
        epoch: Instant::now(),
        sent_at: vec![0; ring_len],
        outstanding: vec![0; ring_len],
        cursor: 0,
        in_flight: 0,
        attempted: 0,
        arrivals: 0,
        failures: Failures::default(),
        spare: Vec::new(),
        completed: 0,
        payload_bytes: 0,
        latency_ns: Vec::new(),
    };
    let link = sys.link.as_ref();
    let mut results = Vec::new();

    for phase in phases {
        let traced = phase.kind == PhaseKind::Traced;
        g.completed = 0;
        g.payload_bytes = 0;
        g.latency_ns.clear();
        let mut blocked = Duration::ZERO;
        let phase_span = match (&mut recorder, traced) {
            (Some(r), true) => r.open("run.traced", None, 0),
            _ => None,
        };
        let stats_before = sys.processor.stats();
        alloc::arm(traced);
        let allocs_before = alloc::Snapshot::now();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(phase.secs);
        let end = loop {
            let now = Instant::now();
            if now >= deadline {
                break now;
            }
            let room = g.in_flight + w.chunk <= w.window;
            if room {
                let first_call = CALL_BASE + g.cursor as u64;
                g.send_chunk(link, now);
                if let (Some(r), true) = (&mut recorder, traced) {
                    r.record(
                        "loadgen.send_batch",
                        now,
                        Instant::now(),
                        phase_span,
                        first_call,
                    );
                }
            }
            let burst_start = Instant::now();
            let burst_ns = g.ns(burst_start);
            let before = g.arrivals;
            while let Ok(frame) = sys.rx.try_recv() {
                g.arrive(frame, burst_ns);
            }
            if g.arrivals > before {
                if let (Some(r), true) = (&mut recorder, traced) {
                    r.record(
                        "loadgen.sink_recv",
                        burst_start,
                        Instant::now(),
                        phase_span,
                        g.arrivals,
                    );
                }
            } else if !room {
                // Window full and nothing back yet: the generator waits for
                // the system, which is what makes the loop closed. It sleeps
                // rather than parking on the channel, so the processor never
                // pays a wake-up for the generator's sake and the two
                // threads do not fall into lock step.
                std::thread::sleep(POLL);
                blocked += burst_start.elapsed();
            }
        };
        let allocs = alloc::Snapshot::now().since(&allocs_before);
        alloc::arm(false);
        if let Some(r) = &mut recorder {
            r.close(phase_span);
        }
        let latency = Latency::of(&mut g.latency_ns, phase.kind, &mut g.failures);
        results.push(PhaseResult {
            kind: Some(phase.kind),
            elapsed_s: end.duration_since(start).as_secs_f64(),
            completed: g.completed,
            payload_bytes: g.payload_bytes,
            latency,
            blocked_s: blocked.as_secs_f64(),
            allocs: traced.then_some(allocs),
            processor: stats_delta(&sys.processor.stats(), &stats_before),
            send_call_ns: 0,
        });
    }

    // Whatever is still in flight must arrive: a frame that never does is
    // a lost frame.
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while g.in_flight > 0 && Instant::now() < drain_deadline {
        if let Ok(frame) = sys.rx.recv_timeout(Duration::from_millis(50)) {
            let now_ns = g.ns(Instant::now());
            g.arrive(frame, now_ns);
        }
    }
    let lost = g.in_flight as u64;
    g.failures
        .add(lost, || format!("{lost} frames never arrived"));
    // Nothing may trail in after the last expected frame.
    if let Ok(frame) = sys.rx.recv_timeout(Duration::from_millis(20)) {
        let now_ns = g.ns(Instant::now());
        g.arrive(frame, now_ns);
    }

    LoadResult {
        phases: results,
        attempted: g.attempted,
        failures: g.failures,
    }
}
