//! Per-layer probes: single-threaded loops that call one layer's public
//! functions over the workload's own corpus, from outside the program.
//!
//! A probe is timed in blocks of [`BLOCK`] calls and reports the median
//! block, so a descheduled block does not move the number. Each block is a
//! span. The numbers are costs in isolation, with warm caches and no
//! contention: a layer saves at most this much per message, and what the
//! probes cannot see is what `unattributed_ns` reports.

use std::hint::black_box;
use std::time::{Duration, Instant};

use adn::backend::jit::{native_available, resolve_tier, JitEngine, JitTier};
use adn::backend::native::{compile_element, element_seed, CompileOpts};
use adn::controller::compile::CompiledApp;
use adn::dsl::{check_element, parse_element};
use adn::ir::{lower_element, optimize, ChainIr, PassConfig};
use adn::rpc::engine::{Engine, EngineChain, Verdict};
use adn::rpc::message::{MessageKind, RpcMessage};
use adn::rpc::retry::DedupWindow;
use adn::rpc::schema::ServiceSchema;
use adn::rpc::transport::{Frame, InProcNetwork, Link, TcpLink};
use adn::rpc::wire_format::{decode_message_exact, encode_message_into, peek_envelope};
use adn::wire::buffer::BufferPool;
use adn_verifier::{verify_chain, ChainVerifyOptions};

use crate::alloc;
use crate::chains;
use crate::corpus::{Workload, LOADGEN, PROCESSOR_DEDUP_WINDOW};
use crate::spans::Recorder;
use crate::stats::median;

/// Calls per timed block.
const BLOCK: usize = 1024;
/// Frames per batched call, as the processor batches them.
const BATCH: usize = 16;
/// Endpoint the transport probes send to.
const PROBE_DST: u64 = 7;
/// Decoded messages kept for the encode and chain probes.
const MESSAGES: usize = 1024;

/// Runs probes and collects their results.
pub struct Probes<'a> {
    recorder: &'a mut Recorder,
    parent: Option<u32>,
    /// Calls each probe aims for, and the wall time after which it stops
    /// early (never before eight blocks).
    target_calls: usize,
    time_cap: Duration,
    /// Repetitions of each compile-pipeline probe.
    compile_runs: usize,
    pub results: Vec<(&'static str, f64)>,
}

impl<'a> Probes<'a> {
    pub fn new(recorder: &'a mut Recorder, quick: bool) -> Self {
        let parent = recorder.open("probes", None, 0);
        Self {
            recorder,
            parent,
            target_calls: if quick { 20_000 } else { 200_000 },
            time_cap: Duration::from_millis(if quick { 60 } else { 600 }),
            compile_runs: if quick { 5 } else { 21 },
            results: Vec::new(),
        }
    }

    pub fn spans_recorded(&self) -> usize {
        self.recorder.spans().len()
    }

    pub fn finish(self) {
        self.recorder.close(self.parent);
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.results.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.results
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Times `block` repeatedly; each call of `block` prepares what it
    /// needs untimed, runs [`BLOCK`] calls, and returns when the timed part
    /// started and ended. Reports the median nanoseconds per call.
    fn per_call(&mut self, name: &'static str, mut block: impl FnMut() -> (Instant, Instant)) {
        let began = Instant::now();
        let mut per_call = Vec::new();
        while per_call.len() * BLOCK < self.target_calls
            && (per_call.len() < 8 || began.elapsed() < self.time_cap)
        {
            let (start, end) = block();
            self.recorder
                .record(name, start, end, self.parent, per_call.len() as u64);
            per_call.push(end.duration_since(start).as_nanos() as f64 / BLOCK as f64);
        }
        self.put(name, median(&per_call));
    }

    /// Median wall time of `run`, in milliseconds.
    fn millis(&mut self, name: &'static str, mut run: impl FnMut()) {
        let mut ms = Vec::new();
        for i in 0..self.compile_runs {
            let start = Instant::now();
            run();
            let end = Instant::now();
            self.recorder
                .record(name, start, end, self.parent, i as u64);
            ms.push(end.duration_since(start).as_secs_f64() * 1e3);
        }
        self.put(name, median(&ms));
    }

    /// `rpc.wire_format`, `wire` and `rpc.retry`: what every message pays
    /// on the way through a hop.
    pub fn codec(&mut self, frames: &[Frame], service: &ServiceSchema) {
        let ring = frames.len();
        let mut at = 0usize;
        let mut next = move || {
            at = (at + 1) % ring;
            at
        };

        self.per_call("rpc.wire_format.peek_ns", || {
            let start = Instant::now();
            for _ in 0..BLOCK {
                black_box(peek_envelope(black_box(&frames[next()].payload)).expect("peeks"));
            }
            (start, Instant::now())
        });
        self.per_call("rpc.wire_format.decode_ns", || {
            let start = Instant::now();
            for _ in 0..BLOCK {
                black_box(
                    decode_message_exact(black_box(&frames[next()].payload), service)
                        .expect("decodes"),
                );
            }
            (start, Instant::now())
        });

        let messages = decoded(frames, service);
        let pool = BufferPool::new(512, 64);
        self.per_call("rpc.wire_format.encode_ns", || {
            let start = Instant::now();
            for i in 0..BLOCK {
                let buf =
                    encode_message_into(pool.take(), black_box(&messages[i % messages.len()]))
                        .expect("encodes");
                pool.give(black_box(buf));
            }
            (start, Instant::now())
        });

        let wire_bytes: usize = frames.iter().map(|f| f.payload.len()).sum();
        self.put(
            "rpc.wire_format.wire_bytes",
            wire_bytes as f64 / ring as f64,
        );

        // Exact counts: this thread's allocator calls around BLOCK calls.
        alloc::arm(true);
        let before = alloc::Snapshot::now();
        for i in 0..BLOCK {
            black_box(decode_message_exact(&frames[i % ring].payload, service).expect("decodes"));
        }
        let after_decode = alloc::Snapshot::now();
        for i in 0..BLOCK {
            let buf =
                encode_message_into(pool.take(), &messages[i % messages.len()]).expect("encodes");
            pool.give(black_box(buf));
        }
        let after_encode = alloc::Snapshot::now();
        alloc::arm(false);
        self.put(
            "rpc.wire_format.decode_allocs",
            after_decode.since(&before).thread_allocs as f64 / BLOCK as f64,
        );
        self.put(
            "rpc.wire_format.encode_allocs",
            after_encode.since(&after_decode).thread_allocs as f64 / BLOCK as f64,
        );

        self.per_call("wire.pool_take_give_ns", || {
            let start = Instant::now();
            for _ in 0..BLOCK {
                pool.give(black_box(pool.take()));
            }
            (start, Instant::now())
        });

        let (tx, rx) = crossbeam::channel::unbounded::<Frame>();
        let mut frame = Some(Frame {
            src: LOADGEN,
            dst: PROBE_DST,
            payload: Vec::new(),
        });
        self.per_call("crossbeam.channel_send_recv_ns", || {
            let start = Instant::now();
            for _ in 0..BLOCK {
                tx.try_send(frame.take().expect("frame in hand"))
                    .expect("unbounded");
                frame = rx.try_recv().ok();
            }
            (start, Instant::now())
        });

        // A full window, as the processor's request cache is in steady
        // state: every insert also evicts.
        let mut window: DedupWindow<(u64, u64), Option<Frame>> =
            DedupWindow::new(PROCESSOR_DEDUP_WINDOW);
        let mut key = 0u64;
        for _ in 0..PROCESSOR_DEDUP_WINDOW {
            key += 1;
            window.insert((LOADGEN, key), None);
        }
        self.per_call("rpc.retry.dedup_get_insert_ns", || {
            let start = Instant::now();
            for _ in 0..BLOCK {
                key += 1;
                black_box(window.get(black_box(&(LOADGEN, key))));
                window.insert((LOADGEN, key), None);
            }
            (start, Instant::now())
        });
    }

    /// `rpc.transport`: handing frames to a link, with the receiving end
    /// drained between blocks so queues stay short.
    pub fn transport(&mut self, frames: &[Frame], oneway_samples: usize) {
        let ring = frames.len();
        let mut at = 0usize;
        let mut addressed = move || {
            at = (at + 1) % ring;
            Frame {
                src: LOADGEN,
                dst: PROBE_DST,
                payload: frames[at].payload.clone(),
            }
        };

        let net = InProcNetwork::new();
        let rx = net.attach(PROBE_DST);
        self.per_call("rpc.transport.inproc_send_ns", || {
            let block: Vec<Frame> = (0..BLOCK).map(|_| addressed()).collect();
            let start = Instant::now();
            for frame in block {
                net.send(frame).expect("attached");
            }
            let end = Instant::now();
            while rx.try_recv().is_ok() {}
            (start, end)
        });
        self.per_call("rpc.transport.inproc_send_batch_ns", || {
            let block: Vec<Vec<Frame>> = (0..BLOCK / BATCH)
                .map(|_| (0..BATCH).map(|_| addressed()).collect())
                .collect();
            let start = Instant::now();
            for batch in block {
                black_box(net.send_batch(batch));
            }
            let end = Instant::now();
            while rx.try_recv().is_ok() {}
            (start, end)
        });

        let near = TcpLink::bind("127.0.0.1:0").expect("bind near host");
        let far = TcpLink::bind("127.0.0.1:0").expect("bind far host");
        near.add_route(PROBE_DST, far.local_addr());
        let receive = |n: usize| {
            for _ in 0..n {
                far.incoming()
                    .recv_timeout(Duration::from_secs(10))
                    .expect("loopback delivers");
            }
        };
        self.per_call("rpc.transport.tcp_send_batch_ns", || {
            let block: Vec<Vec<Frame>> = (0..BLOCK / BATCH)
                .map(|_| (0..BATCH).map(|_| addressed()).collect())
                .collect();
            let start = Instant::now();
            for batch in block {
                black_box(near.send_batch(batch));
            }
            let end = Instant::now();
            receive(BLOCK);
            (start, end)
        });

        // One frame at a time, send to receipt: bound by thread wake-ups,
        // so a diagnostic, not a budget.
        let span_start = Instant::now();
        let mut oneway_us = Vec::with_capacity(oneway_samples);
        for _ in 0..oneway_samples {
            let frame = addressed();
            let start = Instant::now();
            near.send(frame).expect("loopback send");
            receive(1);
            oneway_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        self.recorder.record(
            "rpc.transport.tcp_oneway_p50_us",
            span_start,
            Instant::now(),
            self.parent,
            0,
        );
        self.put("rpc.transport.tcp_oneway_p50_us", median(&oneway_us));
        near.close();
        far.close();
    }

    /// `dsl`, `ir`, `verifier` and `backend.jit` compile times for the
    /// workload's chain: the parts of a set-up that are not deployment.
    pub fn compile_pipeline(&mut self, w: &Workload, seed: u64) {
        let (request, response) = adn::harness::object_store_schemas();
        let sources: Vec<&str> = w.chain.iter().map(|n| chains::source_of(n)).collect();

        self.millis("dsl.parse_check_ms", || {
            for source in &sources {
                let ast = parse_element(source).expect("parses");
                black_box(check_element(&ast, &request, &response).expect("typechecks"));
            }
        });
        let checked: Vec<_> = sources
            .iter()
            .map(|s| {
                check_element(&parse_element(s).expect("parses"), &request, &response)
                    .expect("typechecks")
            })
            .collect();
        let lower = || {
            let elements = checked
                .iter()
                .map(|c| lower_element(c, &[], &request, &response).expect("lowers"))
                .collect();
            ChainIr::new(elements, request.clone(), response.clone())
        };
        self.millis("ir.lower_opt_ms", || {
            black_box(optimize(lower(), &PassConfig::default()));
        });
        let unoptimised = lower();
        self.millis("verifier.preflight_ms", || {
            black_box(verify_chain(&unoptimised, &ChainVerifyOptions::default()));
        });
        let app = chains::compile(w, seed);
        self.millis("backend.jit.compile_ms", || {
            black_box(chains::engines(&app));
        });
    }

    /// `rpc.engine` and `backend.jit`: the workload's chain over batches of
    /// its own messages, at the default tier and at each tier by name.
    ///
    /// The same batches are run again and again: the workload chains leave
    /// a message valid for another pass (`Tagger` keeps adding to
    /// `object_id`; an abort changes nothing).
    pub fn chain(&mut self, app: &CompiledApp, frames: &[Frame], service: &ServiceSchema) {
        let mut batches: Vec<Vec<RpcMessage>> = decoded(frames, service)
            .chunks(BATCH)
            .map(<[RpcMessage]>::to_vec)
            .collect();
        let per_block = BLOCK / BATCH;
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(BATCH);
        let mut exec = |probes: &mut Self, name: &'static str, mut chain: EngineChain| {
            let mut at = 0usize;
            probes.per_call(name, || {
                let start = Instant::now();
                for _ in 0..per_block {
                    at = (at + 1) % batches.len();
                    chain.process_batch(black_box(&mut batches[at]), &mut verdicts);
                    black_box(&verdicts);
                }
                (start, Instant::now())
            });
        };

        exec(self, "rpc.engine.exec_ns", chains::engine_chain(app));
        let tiers = [
            ("backend.jit.exec_interp_ns", JitTier::Interp),
            ("backend.jit.exec_threaded_ns", JitTier::Threaded),
            ("backend.jit.exec_native_ns", JitTier::Native),
        ];
        for (name, tier) in tiers {
            if tier == JitTier::Native && !native_available() {
                self.put(name, 0.0);
                continue;
            }
            exec(self, name, EngineChain::from_engines(engines_at(app, tier)));
        }

        // What the default tier could not lower inline escapes to an
        // interpreter thunk; both directions, against the bound schemas.
        let (mut escapes, mut inline_ops) = (0usize, 0usize);
        let tier = match resolve_tier(JitTier::Auto) {
            JitTier::Interp => JitTier::Threaded,
            tier => tier,
        };
        for (i, element) in app.chain.elements.iter().enumerate() {
            let mut engine = JitEngine::single(element, &opts_for(app, i), tier);
            engine.bind_schema(MessageKind::Request, &app.chain.request_schema);
            engine.bind_schema(MessageKind::Response, &app.chain.response_schema);
            for kind in [MessageKind::Request, MessageKind::Response] {
                let stats = engine.stats(kind);
                escapes += stats.escapes;
                inline_ops += stats.inline_ops;
            }
        }
        self.put("backend.jit.escapes", escapes as f64);
        self.put("backend.jit.inline_ops", inline_ops as f64);
    }
}

fn opts_for(app: &CompiledApp, index: usize) -> CompileOpts {
    CompileOpts {
        seed: element_seed(app.seed, index),
        replicas: vec![chains::REPLICA],
        ..Default::default()
    }
}

/// The chain's engines at one named tier.
fn engines_at(app: &CompiledApp, tier: JitTier) -> Vec<Box<dyn Engine>> {
    app.chain
        .elements
        .iter()
        .enumerate()
        .map(|(i, element)| -> Box<dyn Engine> {
            let opts = opts_for(app, i);
            match tier {
                JitTier::Interp => Box::new(compile_element(element, &opts)),
                tier => Box::new(JitEngine::single(element, &opts, tier)),
            }
        })
        .collect()
}

/// The first [`MESSAGES`] ring slots, decoded.
fn decoded(frames: &[Frame], service: &ServiceSchema) -> Vec<RpcMessage> {
    frames
        .iter()
        .take(MESSAGES)
        .map(|f| decode_message_exact(&f.payload, service).expect("corpus decodes"))
        .collect()
}

/// Frames for the codec and transport probes of the RPC workload, encoded
/// as its client would encode them.
pub fn frames_of_requests(requests: &[RpcMessage]) -> Vec<Frame> {
    requests
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let mut msg = request.clone();
            msg.call_id = crate::corpus::CALL_BASE + i as u64;
            msg.src = LOADGEN;
            msg.dst = chains::REPLICA;
            Frame {
                src: LOADGEN,
                dst: chains::REPLICA,
                payload: adn::rpc::wire_format::encode_message_to_vec(&msg).expect("encodes"),
            }
        })
        .collect()
}
