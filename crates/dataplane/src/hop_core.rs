//! The sans-IO processor hop: every decision a processor makes about a
//! batch of frames, with no thread, channel, [`Link`](adn_rpc::transport::Link)
//! or [`Clock`](adn_rpc::clock::Clock) inside.
//!
//! [`HopCore`] owns all per-hop state — chain, dedup windows, NAT flow
//! table, overload policy, next hops, buffer pool, observer, stats — and
//! [`HopCore::on_batch`] runs the hop's phases in order: classify (envelope
//! peek, in-batch duplicate deferral, dedup replay), admission (expired
//! drop, shed ladder), decode, chain, verdict, deferred-duplicate replay.
//! The driver measures the backlog and queue wait and passes them in, then
//! sends [`HopOutput::forwards`] and [`HopOutput::replays`] however it
//! likes. Two drivers exist: the processor thread
//! ([`spawn_processor`](crate::processor::spawn_processor)) and the
//! simulator (`adn-sim`), so the invariants the simulator checks are
//! checked against this code.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use adn_rpc::engine::{EngineChain, Verdict};
use adn_rpc::message::{MessageKind, RpcMessage, RpcStatus};
use adn_rpc::retry::DedupWindow;
use adn_rpc::schema::ServiceSchema;
use adn_rpc::transport::{EndpointAddr, Frame};
use adn_rpc::wire_format;
use adn_telemetry::{ElementMetrics, HopTelemetry, Span, TraceContext};
use adn_wire::buffer::BufferPool;
use adn_wire::header::Priority;

use crate::processor::{
    NextHop, OverloadPolicy, ProcessorConfig, ProcessorStats, PROCESSOR_DEDUP_WINDOW,
};

/// NAT flow table: in-flight call id → original requester. Shared with
/// [`ProcessorHandle::export_flows`](crate::processor::ProcessorHandle::export_flows).
pub type FlowTable = Arc<parking_lot::Mutex<HashMap<u64, EndpointAddr>>>;

/// What happened to one frame of a batch. `Copy`, so drivers can log and
/// account from it without touching frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopOutcome {
    /// Direction of the frame (`Request` for a frame whose envelope did
    /// not parse).
    pub dir: MessageKind,
    /// Call id from the envelope (0 when it did not parse).
    pub call_id: u64,
    pub kind: OutcomeKind,
}

/// The per-frame outcomes of [`HopCore::on_batch`]. Kinds marked *fresh*
/// emitted one frame into [`HopOutput::forwards`], kinds marked *replay*
/// one frame into [`HopOutput::replays`] — both in outcome order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// The chain forwarded the message to `dst` (fresh).
    Forwarded { dst: EndpointAddr },
    /// The chain dropped the message.
    Dropped,
    /// The chain aborted the call; the abort response went to `dst`
    /// (fresh).
    Aborted { code: u32, dst: EndpointAddr },
    /// A chain element shed the call; the shed reply (or, on a response,
    /// the status-rewritten response) went to `dst` (fresh).
    ChainShed { dst: EndpointAddr },
    /// Admission refused the request below the ladder floor with a
    /// fast-fail `Shed` reply (replay).
    AdmissionShed { priority: Priority },
    /// The request's deadline budget was exhausted; counted, not cached.
    Expired,
    /// A retransmission answered from the dedup cache (replay).
    DedupReplay,
    /// A retransmission whose first instance was dropped.
    DedupDrop,
    /// A response with no flow entry and no cached reply.
    Stale,
    /// The frame did not decode.
    DecodeError,
    /// An in-batch duplicate set aside until the chain ran; its replay
    /// record (when its first instance left anything cached) follows the
    /// chain's outcomes.
    Deferred,
}

impl OutcomeKind {
    /// The chain verdict behind a chain-run outcome, as `(tag, abort
    /// code)` with tags Forward 0, Drop 1, Abort 2, Shed 3. `None` for
    /// outcomes decided without running the chain.
    pub fn verdict(&self) -> Option<(u8, u32)> {
        match *self {
            OutcomeKind::Forwarded { .. } => Some((0, 0)),
            OutcomeKind::Dropped => Some((1, 0)),
            OutcomeKind::Aborted { code, .. } => Some((2, code)),
            OutcomeKind::ChainShed { .. } => Some((3, 0)),
            _ => None,
        }
    }
}

/// What one [`HopCore::on_batch`] call produced.
#[derive(Debug, Default)]
pub struct HopOutput {
    /// Fresh forwards (they count toward `forwarded` once sent).
    pub forwards: Vec<Frame>,
    /// Dedup replays and admission shed replies.
    pub replays: Vec<Frame>,
    /// One record per frame, plus a [`OutcomeKind::Deferred`] marker ahead
    /// of each in-batch duplicate's record.
    pub outcomes: Vec<HopOutcome>,
}

/// Per-processor observation state: the chain's metric series (rebuilt on
/// hot chain swaps), the scratch stage-timing buffer, and the span sink.
/// Its timers only measure; no decision reads them.
struct HopObserver {
    telemetry: HopTelemetry,
    addr: EndpointAddr,
    /// Engine names in chain order, cloned once per chain install.
    names: Vec<String>,
    /// Registry series positionally matching `names`.
    series: Vec<Arc<ElementMetrics>>,
    /// Scratch buffer for [`EngineChain::process_timed`].
    stage_ns: Vec<u64>,
}

impl HopObserver {
    fn new(telemetry: HopTelemetry, addr: EndpointAddr, chain: &EngineChain) -> Self {
        let mut obs = Self {
            telemetry,
            addr,
            names: Vec::new(),
            series: Vec::new(),
            stage_ns: Vec::new(),
        };
        obs.rebind(chain);
        obs
    }

    /// Re-resolves the metric series after a chain install. Series register
    /// under the telemetry's metrics id when set (distinct per shard of a
    /// sharded processor), else under the hop address.
    fn rebind(&mut self, chain: &EngineChain) {
        let metrics_id = self.telemetry.metrics_processor.unwrap_or(self.addr);
        self.names = chain.names().into_iter().map(str::to_owned).collect();
        self.series = self
            .names
            .iter()
            .map(|n| {
                self.telemetry
                    .registry
                    .element(&self.telemetry.app, n, metrics_id)
            })
            .collect();
    }

    /// Whether this message takes the timed path: in-band context wins (so
    /// every hop of a sampled call agrees), otherwise the local sampler
    /// decides by call id.
    fn sampled(&self, trace: Option<&TraceContext>, call_id: u64) -> bool {
        trace.is_some() || self.telemetry.sampler.decide(call_id)
    }

    /// Records the stage timings `process_timed` left in `stage_ns`. Only
    /// the last executed stage can have produced a non-forward verdict.
    fn record_stages(&self, verdict: &Verdict) {
        let ran = self.stage_ns.len();
        for (i, (series, &ns)) in self.series.iter().zip(&self.stage_ns).enumerate() {
            let forwarded = verdict.is_forward() || i + 1 < ran;
            series.observe(ns, forwarded);
        }
    }

    /// Emits a span for a traced hop, honoring the context's budget flag.
    fn emit_span(&self, ctx: &TraceContext, call_id: u64, queue_ns: u64, serialize_ns: u64) {
        if !ctx.budget {
            return;
        }
        self.telemetry.spans.push(Span {
            trace_id: ctx.trace_id,
            span_id: ctx.span_at(self.addr),
            parent_span: ctx.parent_span,
            call_id,
            processor: self.addr,
            queue_ns,
            stages: self
                .names
                .iter()
                .zip(&self.stage_ns)
                .map(|(n, &ns)| (n.clone(), ns))
                .collect(),
            serialize_ns,
        });
    }
}

/// Per-message bookkeeping carried from batch classification to verdict
/// handling.
struct RunMeta {
    sampled: bool,
    /// Inbound trace context (forwards re-parent on this hop).
    ctx: Option<TraceContext>,
    origin: Origin,
}

/// What kind of traffic a runnable message is, plus the identifiers the
/// at-most-once machinery needs after the chain has (possibly) rewritten
/// the message.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Origin {
    Request {
        /// Dedup key: (pre-NAT source, call id).
        key: (EndpointAddr, u64),
        orig_src: EndpointAddr,
    },
    Response {
        call_id: u64,
    },
}

/// A frame set aside during classification because an earlier frame in the
/// same batch holds its dedup key: its outcome is replayed from the cache
/// once the batch has executed, exactly as sequential processing would.
enum Deferred {
    Request((EndpointAddr, u64)),
    Response(u64),
}

/// One processor hop's state and logic, driven batch by batch.
pub struct HopCore {
    addr: EndpointAddr,
    service: Arc<ServiceSchema>,
    chain: EngineChain,
    request_next: NextHop,
    response_next: NextHop,
    overload: OverloadPolicy,
    flows: FlowTable,
    stats: Arc<ProcessorStats>,
    observer: Option<HopObserver>,
    /// Inbound payloads return here after decode and outbound encodes
    /// draw from here, so the steady-state hot path does not allocate per
    /// message.
    pool: BufferPool,
    /// At-most-once caches. Requests key on (pre-NAT src, call id) and
    /// cache the outbound frame, so a retransmission replays the forward
    /// without re-running the chain or re-inserting the flow. Responses
    /// key on call id and cache the post-chain reply, so a response
    /// retransmitted after its flow entry was consumed still reaches the
    /// requester instead of looping back to us.
    req_cache: DedupWindow<(EndpointAddr, u64), Option<Frame>>,
    resp_cache: DedupWindow<u64, Option<Frame>>,
    runnable: Vec<RpcMessage>,
    meta: Vec<RunMeta>,
    verdicts: Vec<Verdict>,
    deferred: Vec<Deferred>,
}

impl HopCore {
    /// A core serving `config.addr`. The config's clock and inbox capacity
    /// belong to the driver and are ignored here.
    pub fn new(config: ProcessorConfig) -> Self {
        let ProcessorConfig {
            addr,
            service,
            chain,
            request_next,
            response_next,
            initial_flows,
            telemetry,
            clock: _,
            batch_max,
            overload,
            inbox_capacity: _,
        } = config;
        let batch_max = batch_max.max(1);
        Self {
            observer: telemetry.map(|t| HopObserver::new(t, addr, &chain)),
            addr,
            service,
            chain,
            request_next,
            response_next,
            overload,
            flows: Arc::new(parking_lot::Mutex::new(initial_flows)),
            stats: Arc::new(ProcessorStats::default()),
            pool: BufferPool::new(512, 2 * batch_max),
            req_cache: DedupWindow::new(PROCESSOR_DEDUP_WINDOW),
            resp_cache: DedupWindow::new(PROCESSOR_DEDUP_WINDOW),
            runnable: Vec::with_capacity(batch_max),
            meta: Vec::with_capacity(batch_max),
            verdicts: Vec::with_capacity(batch_max),
            deferred: Vec::new(),
        }
    }

    /// The hop's counters (shared with the driver's handle).
    pub fn stats(&self) -> &Arc<ProcessorStats> {
        &self.stats
    }

    /// The NAT flow table (shared with the driver's handle).
    pub fn flows(&self) -> &FlowTable {
        &self.flows
    }

    /// Exports the chain's per-engine state images.
    pub fn export_states(&self) -> Vec<Vec<u8>> {
        self.chain.export_states()
    }

    /// Imports per-engine state images into the chain.
    pub fn import_states(&mut self, images: &[Vec<u8>]) -> Result<(), String> {
        self.chain.import_states(images)
    }

    /// Replaces the chain (hot update), rebinding the observer's metric
    /// series. Returns the old chain's state images.
    pub fn install_chain(&mut self, chain: EngineChain) -> Vec<Vec<u8>> {
        let old = std::mem::replace(&mut self.chain, chain);
        if let Some(obs) = self.observer.as_mut() {
            obs.rebind(&self.chain);
        }
        old.export_states()
    }

    /// Re-points where requests go after the chain.
    pub fn set_request_next(&mut self, next: NextHop) {
        self.request_next = next;
    }

    /// Replaces the admission policy.
    pub fn set_overload(&mut self, overload: OverloadPolicy) {
        self.overload = overload;
    }

    /// Runs one batch through the hop. `backlog` is the inbound queue depth
    /// the driver saw before pulling the batch (the shed ladder's input);
    /// `queue_ns` is how long the batch waited (charged against in-band
    /// deadline budgets and reported in spans). Appends to `out`.
    pub fn on_batch(
        &mut self,
        frames: impl IntoIterator<Item = Frame>,
        backlog: usize,
        queue_ns: u64,
        out: &mut HopOutput,
    ) {
        let frames = frames.into_iter();
        out.forwards.reserve(frames.size_hint().0);
        self.classify(frames, backlog, queue_ns, out);
        self.run_chain(queue_ns, out);
        // Deferred in-batch duplicates replay the (now recorded) outcome
        // of their first instance.
        for d in self.deferred.drain(..) {
            match d {
                Deferred::Request(key) => {
                    replay_cached(
                        &self.req_cache,
                        &key,
                        &self.stats,
                        out,
                        MessageKind::Request,
                        key.1,
                    );
                }
                Deferred::Response(call_id) => {
                    replay_or_stale(&self.resp_cache, call_id, &self.stats, out);
                }
            }
        }
    }

    /// The shared header-parse fast path: every frame gets one envelope
    /// peek; retransmissions, stale responses and refused requests are
    /// settled right here without a full decode. Only chain-bound messages
    /// decode their fields.
    fn classify(
        &mut self,
        frames: impl Iterator<Item = Frame>,
        backlog: usize,
        queue_ns: u64,
        out: &mut HopOutput,
    ) {
        let stats = &self.stats;
        let pool = &self.pool;
        for frame in frames {
            let payload = frame.payload;
            let env = match wire_format::peek_envelope(&payload) {
                Ok(e) => e,
                Err(_) => {
                    stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    out.outcomes
                        .push(outcome(MessageKind::Request, 0, OutcomeKind::DecodeError));
                    pool.give(payload);
                    continue;
                }
            };
            let (dir, call_id) = (env.kind, env.call_id);
            let in_batch = self.meta.iter().any(|m| match m.origin {
                Origin::Request { key, .. } => {
                    dir == MessageKind::Request && key == (env.src, call_id)
                }
                Origin::Response { call_id: c } => dir == MessageKind::Response && c == call_id,
            });
            if in_batch {
                // An earlier frame in this batch holds the key: replay its
                // outcome after the batch.
                self.deferred.push(match dir {
                    MessageKind::Request => Deferred::Request((env.src, call_id)),
                    MessageKind::Response => Deferred::Response(call_id),
                });
                out.outcomes
                    .push(outcome(dir, call_id, OutcomeKind::Deferred));
                pool.give(payload);
                continue;
            }
            let remaining = match dir {
                MessageKind::Request => {
                    let key = (env.src, call_id);
                    // Retransmission: replay the recorded outcome without
                    // re-running the chain (at-most-once through stateful
                    // elements) or re-inserting the flow.
                    if replay_cached(&self.req_cache, &key, stats, out, dir, call_id) {
                        pool.give(payload);
                        continue;
                    }
                    // Admission control, straight off the envelope — refused
                    // frames never pay a full decode or the chain. The hop
                    // first charges the frame's measured queue wait against
                    // its in-band budget.
                    let remaining = env.deadline.map(|d| d.consume(queue_ns));
                    if self.overload.drop_expired && remaining.as_ref().is_some_and(|d| d.expired())
                    {
                        // The caller already gave up: executing this would
                        // be pure waste. Counted, never cached — a retry
                        // arrives with a fresh budget and is judged afresh.
                        stats.expired_drops.fetch_add(1, Ordering::Relaxed);
                        out.outcomes
                            .push(outcome(dir, call_id, OutcomeKind::Expired));
                        pool.give(payload);
                        continue;
                    }
                    // Unstamped traffic rides as Normal: brownout (floor
                    // Normal) never touches it, deep overload (floor above
                    // Normal) sheds it like any other non-critical class.
                    let priority = remaining.as_ref().map_or(Priority::Normal, |d| d.priority);
                    if priority < self.overload.admission_floor(backlog) {
                        // Fast-fail refusal: a Shed reply tells the client
                        // to back off instead of letting its attempt time
                        // out into a retry storm. Not dedup-cached — the
                        // request never ran, so a later retry is a fresh
                        // admission decision.
                        stats.shed.fetch_add(1, Ordering::Relaxed);
                        if let Some(method) = self.service.method_by_id(env.method_id) {
                            let mut r = RpcMessage::request(
                                call_id,
                                env.method_id,
                                method.response.clone(),
                            );
                            r.kind = MessageKind::Response;
                            r.status = RpcStatus::Shed;
                            r.src = self.addr;
                            r.dst = env.src;
                            r.deadline = remaining;
                            if let Some(frame) = encode_out(pool, self.addr, env.src, &r) {
                                out.replays.push(frame);
                            }
                        }
                        out.outcomes.push(outcome(
                            dir,
                            call_id,
                            OutcomeKind::AdmissionShed { priority },
                        ));
                        pool.give(payload);
                        continue;
                    }
                    remaining
                }
                MessageKind::Response => None,
            };
            let mut msg = match wire_format::decode_message_exact(&payload, &self.service) {
                Ok(m) => m,
                Err(_) => {
                    stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    out.outcomes
                        .push(outcome(dir, call_id, OutcomeKind::DecodeError));
                    pool.give(payload);
                    continue;
                }
            };
            pool.give(payload);
            let origin = match dir {
                MessageKind::Request => {
                    // The forwarded message carries the decremented budget:
                    // downstream hops see strictly less.
                    msg.deadline = remaining;
                    stats.requests.fetch_add(1, Ordering::Relaxed);
                    Origin::Request {
                        key: (env.src, call_id),
                        orig_src: msg.src,
                    }
                }
                MessageKind::Response => {
                    // NAT out: restore the original requester.
                    let flow = self.flows.lock().remove(&call_id);
                    let Some(orig_src) = flow else {
                        replay_or_stale(&self.resp_cache, call_id, stats, out);
                        continue;
                    };
                    stats.responses.fetch_add(1, Ordering::Relaxed);
                    msg.dst = orig_src;
                    // Responses charge their queue wait too, so the echoed
                    // budget stays monotonic end to end.
                    msg.deadline = msg.deadline.map(|d| d.consume(queue_ns));
                    Origin::Response { call_id }
                }
            };
            let sampled = self
                .observer
                .as_ref()
                .is_some_and(|o| o.sampled(msg.trace.as_ref(), msg.call_id));
            self.meta.push(RunMeta {
                sampled,
                ctx: msg.trace,
                origin,
            });
            self.runnable.push(msg);
        }
    }

    /// Runs the chain over the runnable messages and turns verdicts into
    /// outbound frames. Unsampled batches (the common case) take the
    /// engine-major batch entry point; a batch containing any sampled
    /// message falls back to per-message processing so stage timings and
    /// spans attribute to the right message.
    fn run_chain(&mut self, queue_ns: u64, out: &mut HopOutput) {
        let mut runnable = std::mem::take(&mut self.runnable);
        let mut meta = std::mem::take(&mut self.meta);
        if meta.iter().any(|m| m.sampled) {
            for (mut msg, m) in runnable.drain(..).zip(meta.drain(..)) {
                let verdict = match (&mut self.observer, m.sampled) {
                    (Some(obs), true) => {
                        let v = self.chain.process_timed(&mut msg, &mut obs.stage_ns);
                        obs.record_stages(&v);
                        v
                    }
                    _ => self.chain.process(&mut msg),
                };
                let call_id = msg.call_id;
                let forward_verdict = verdict.is_forward();
                // Every request outcome and forwarded/dropped responses
                // emit spans; response aborts do not.
                let emit = !(matches!(m.origin, Origin::Response { .. })
                    && matches!(verdict, Verdict::Abort { .. }));
                let serialize = Instant::now();
                self.handle_verdict(verdict, msg, m.origin, m.ctx, out);
                if let (Some(obs), Some(c), true, true) = (&self.observer, &m.ctx, m.sampled, emit)
                {
                    let ser_ns = if forward_verdict {
                        serialize.elapsed().as_nanos() as u64
                    } else {
                        0
                    };
                    obs.emit_span(c, call_id, queue_ns, ser_ns);
                }
            }
        } else {
            let mut verdicts = std::mem::take(&mut self.verdicts);
            self.chain.process_batch(&mut runnable, &mut verdicts);
            for ((msg, m), verdict) in runnable
                .drain(..)
                .zip(meta.drain(..))
                .zip(verdicts.drain(..))
            {
                self.handle_verdict(verdict, msg, m.origin, m.ctx, out);
            }
            self.verdicts = verdicts;
        }
        self.runnable = runnable;
        self.meta = meta;
    }

    /// Applies a chain verdict to one message: NAT bookkeeping, trace
    /// re-parenting, outbound encode, and the at-most-once cache insert.
    fn handle_verdict(
        &mut self,
        verdict: Verdict,
        mut msg: RpcMessage,
        origin: Origin,
        ctx: Option<TraceContext>,
        out: &mut HopOutput,
    ) {
        let addr = self.addr;
        let call_id = msg.call_id;
        let (dir, kind, frame) = match origin {
            Origin::Request { key, orig_src } => {
                let (kind, frame) = match verdict {
                    Verdict::Forward => {
                        // NAT in: responses will come back to us.
                        self.flows.lock().insert(call_id, orig_src);
                        msg.src = addr;
                        if let Some(c) = &ctx {
                            // Downstream spans parent on this hop.
                            msg.trace = Some(c.child_from(addr));
                        }
                        let dst = self.request_next.resolve(msg.dst);
                        (OutcomeKind::Forwarded { dst }, self.encode(dst, &msg))
                    }
                    Verdict::Drop => {
                        self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                        (OutcomeKind::Dropped, None)
                    }
                    Verdict::Abort { code, message } => {
                        self.stats.aborted.fetch_add(1, Ordering::Relaxed);
                        // Reflect an aborted response to the caller.
                        let frame = self.reply_to(&msg, orig_src, |r| r.abort(code, message));
                        (
                            OutcomeKind::Aborted {
                                code,
                                dst: orig_src,
                            },
                            frame,
                        )
                    }
                    Verdict::Shed => {
                        // A chain element refused the request. Unlike the
                        // pre-chain admission shed, the chain partially ran,
                        // so the outcome is cached like an abort: a
                        // retransmission replays the refusal instead of
                        // re-driving stateful elements.
                        self.stats.shed.fetch_add(1, Ordering::Relaxed);
                        let frame = self.reply_to(&msg, orig_src, |r| r.status = RpcStatus::Shed);
                        (OutcomeKind::ChainShed { dst: orig_src }, frame)
                    }
                };
                self.req_cache.insert(key, frame.clone());
                (MessageKind::Request, kind, frame)
            }
            Origin::Response { call_id } => {
                msg.src = addr;
                let (kind, frame) = match verdict {
                    Verdict::Forward => {
                        if let Some(c) = &ctx {
                            msg.trace = Some(c.child_from(addr));
                        }
                        let dst = self.response_next.resolve(msg.dst);
                        (OutcomeKind::Forwarded { dst }, self.encode(dst, &msg))
                    }
                    Verdict::Drop => {
                        self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                        (OutcomeKind::Dropped, None)
                    }
                    Verdict::Abort { code, message } => {
                        self.stats.aborted.fetch_add(1, Ordering::Relaxed);
                        msg.abort(code, message);
                        let dst = msg.dst;
                        (OutcomeKind::Aborted { code, dst }, self.encode(dst, &msg))
                    }
                    Verdict::Shed => {
                        // Shedding a response would waste the work already
                        // done upstream; rewrite the status instead so the
                        // client learns the path is overloaded, and forward
                        // it home.
                        self.stats.shed.fetch_add(1, Ordering::Relaxed);
                        msg.status = RpcStatus::Shed;
                        let dst = self.response_next.resolve(msg.dst);
                        (OutcomeKind::ChainShed { dst }, self.encode(dst, &msg))
                    }
                };
                self.resp_cache.insert(call_id, frame.clone());
                (MessageKind::Response, kind, frame)
            }
        };
        // The frame is both sent (and counted) with the batch and recorded
        // in a dedup cache, even if the fabric later rejects it —
        // retransmission replays resend it.
        out.forwards.extend(frame);
        out.outcomes.push(outcome(dir, call_id, kind));
    }

    /// Builds the response a refused request reflects to `to`.
    fn reply_to(
        &self,
        req: &RpcMessage,
        to: EndpointAddr,
        set_status: impl FnOnce(&mut RpcMessage),
    ) -> Option<Frame> {
        let method = self.service.method_by_id(req.method_id)?;
        let mut resp = RpcMessage::response_to(req, method.response.clone());
        set_status(&mut resp);
        resp.src = self.addr;
        resp.dst = to;
        self.encode(to, &resp)
    }

    fn encode(&self, to: EndpointAddr, msg: &RpcMessage) -> Option<Frame> {
        encode_out(&self.pool, self.addr, to, msg)
    }
}

fn outcome(dir: MessageKind, call_id: u64, kind: OutcomeKind) -> HopOutcome {
    HopOutcome { dir, call_id, kind }
}

/// Answers a retransmission (or deferred in-batch duplicate) from a dedup
/// cache: counts the hit, queues the cached frame as a replay, records the
/// outcome. `false` when nothing is cached under `key`.
fn replay_cached<K: Hash + Eq + Clone>(
    cache: &DedupWindow<K, Option<Frame>>,
    key: &K,
    stats: &ProcessorStats,
    out: &mut HopOutput,
    dir: MessageKind,
    call_id: u64,
) -> bool {
    let Some(cached) = cache.get(key) else {
        return false;
    };
    stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
    let kind = match cached {
        Some(frame) => {
            out.replays.push(frame.clone());
            OutcomeKind::DedupReplay
        }
        None => OutcomeKind::DedupDrop,
    };
    out.outcomes.push(outcome(dir, call_id, kind));
    true
}

/// A response with no flow entry is either a retransmission whose flow was
/// already consumed (replay the cached reply) or a stale/foreign response
/// whose NAT'd destination is this hop itself (drop it — forwarding would
/// self-loop).
fn replay_or_stale(
    cache: &DedupWindow<u64, Option<Frame>>,
    call_id: u64,
    stats: &ProcessorStats,
    out: &mut HopOutput,
) {
    let dir = MessageKind::Response;
    if !replay_cached(cache, &call_id, stats, out, dir, call_id) {
        stats.stale_responses.fetch_add(1, Ordering::Relaxed);
        out.outcomes.push(outcome(dir, call_id, OutcomeKind::Stale));
    }
}

/// Encodes `msg` into a pool-backed buffer as an outbound frame. `None`
/// only on encode failure.
fn encode_out(
    pool: &BufferPool,
    src: EndpointAddr,
    to: EndpointAddr,
    msg: &RpcMessage,
) -> Option<Frame> {
    let payload = wire_format::encode_message_into(pool.take(), msg).ok()?;
    Some(Frame {
        src,
        dst: to,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::processor::tests::{service, CountAndStamp};
    use adn_rpc::engine::Engine;
    use adn_wire::header::OverloadContext;
    use OutcomeKind::*;

    /// Answers every message of one direction with a fixed verdict.
    struct On(MessageKind, Verdict);
    impl Engine for On {
        fn name(&self) -> &str {
            "on"
        }
        fn process(&mut self, msg: &mut RpcMessage) -> Verdict {
            if msg.kind == self.0 {
                self.1.clone()
            } else {
                Verdict::Forward
            }
        }
    }

    /// A hop at 5 forwarding requests to the server at 2.
    fn config(engines: Vec<Box<dyn Engine>>) -> ProcessorConfig {
        ProcessorConfig::new(
            5,
            service(),
            EngineChain::from_engines(engines),
            NextHop::Fixed(2),
            NextHop::Dst,
        )
    }

    fn counting(mut rest: Vec<Box<dyn Engine>>) -> HopCore {
        rest.insert(0, Box::new(CountAndStamp { count: 0 }));
        HopCore::new(config(rest))
    }

    /// Chain executions so far (the leading `CountAndStamp`'s state).
    fn runs(hop: &HopCore) -> u64 {
        u64::from_le_bytes(hop.export_states()[0].clone().try_into().unwrap())
    }

    /// A request from the client at 1, optionally deadline-stamped.
    fn request(call_id: u64, deadline: Option<OverloadContext>) -> Frame {
        let m = service().method_by_id(1).unwrap().request.clone();
        let mut msg = RpcMessage::request(call_id, 1, m)
            .with("x", 2u64)
            .with("who", "c");
        msg.src = 1;
        msg.dst = 2;
        msg.deadline = deadline;
        frame(1, &msg)
    }

    /// The server's response to a call this hop forwarded.
    fn response(call_id: u64) -> Frame {
        let m = service().method_by_id(1).unwrap().response.clone();
        let mut msg = RpcMessage::request(call_id, 1, m).with("x", 2u64);
        msg.kind = MessageKind::Response;
        msg.src = 2;
        msg.dst = 5;
        frame(2, &msg)
    }

    fn frame(src: EndpointAddr, msg: &RpcMessage) -> Frame {
        Frame {
            src,
            dst: 5,
            payload: wire_format::encode_message_to_vec(msg).unwrap(),
        }
    }

    fn budget(priority: Priority) -> Option<OverloadContext> {
        Some(OverloadContext::root(
            Duration::from_secs(5).as_nanos() as u64,
            priority,
        ))
    }

    fn run(hop: &mut HopCore, frames: Vec<Frame>, backlog: usize) -> HopOutput {
        let mut out = HopOutput::default();
        hop.on_batch(frames, backlog, 0, &mut out);
        out
    }

    fn kinds(out: &HopOutput) -> Vec<OutcomeKind> {
        out.outcomes.iter().map(|o| o.kind).collect()
    }

    fn decode(frame: &Frame) -> RpcMessage {
        wire_format::decode_message_exact(&frame.payload, &service()).unwrap()
    }

    #[test]
    fn duplicate_request_replays_cached_outcome() {
        let mut hop = counting(vec![]);
        let first = run(&mut hop, vec![request(99, None)], 0);
        assert_eq!(kinds(&first), [Forwarded { dst: 2 }]);
        // The identical frame again (a resilient client's retransmission):
        // the recorded forward is replayed byte for byte.
        let again = run(&mut hop, vec![request(99, None)], 0);
        assert_eq!(kinds(&again), [DedupReplay]);
        assert_eq!(again.replays, first.forwards);
        // Both transmissions of the server's response reach the client...
        for expect in [Forwarded { dst: 1 }, DedupReplay] {
            let out = run(&mut hop, vec![response(99)], 0);
            assert_eq!(kinds(&out), [expect]);
            let reply = out.forwards.iter().chain(&out.replays).next().unwrap();
            assert_eq!(reply.dst, 1);
            assert_eq!(decode(reply).call_id, 99);
        }
        // ... but the chain ran for exactly one request + one response.
        let stats = hop.stats().snapshot();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.dedup_hits, 2);
        assert_eq!(runs(&hop), 2);
    }

    #[test]
    fn in_batch_duplicates_replay_their_first_instance() {
        let mut hop = counting(vec![]);
        let out = run(&mut hop, vec![request(7, None), request(7, None)], 0);
        assert_eq!(kinds(&out), [Deferred, Forwarded { dst: 2 }, DedupReplay]);
        assert_eq!(out.replays, out.forwards);
        let out = run(&mut hop, vec![response(7), response(7)], 0);
        assert_eq!(kinds(&out), [Deferred, Forwarded { dst: 1 }, DedupReplay]);
        assert_eq!(out.replays, out.forwards);
        assert_eq!(runs(&hop), 2, "one request and one response execution");
    }

    #[test]
    fn stale_response_is_dropped_not_looped() {
        let mut hop = counting(vec![]);
        // No flow entry and no cached reply: a NAT'd response's dst is this
        // hop itself, so forwarding it would self-loop.
        let out = run(&mut hop, vec![response(777)], 0);
        assert_eq!(kinds(&out), [Stale]);
        assert!(out.forwards.is_empty() && out.replays.is_empty());
        assert_eq!(hop.stats().snapshot().stale_responses, 1);
        assert_eq!(runs(&hop), 0, "a stale response never runs the chain");
    }

    #[test]
    fn expired_requests_are_dropped_and_counted_not_cached() {
        let mut hop = counting(vec![]);
        let exhausted = Some(OverloadContext::root(0, Priority::Normal));
        let out = run(&mut hop, vec![request(9, exhausted)], 0);
        assert_eq!(kinds(&out), [Expired]);
        // The batch's queue wait is charged before the check.
        let mut out = HopOutput::default();
        let barely = Some(OverloadContext::root(1_000, Priority::Normal));
        hop.on_batch(vec![request(9, barely)], 0, 1_000, &mut out);
        assert_eq!(kinds(&out), [Expired]);
        let stats = hop.stats().snapshot();
        assert_eq!(stats.expired_drops, 2);
        assert_eq!(stats.requests, 0, "an expired frame never runs the chain");
        // Not dedup-cached: the same call id with a live budget is admitted.
        let out = run(&mut hop, vec![request(9, budget(Priority::Normal))], 0);
        assert_eq!(
            kinds(&out),
            [Forwarded { dst: 2 }],
            "retry is judged afresh"
        );
        assert_eq!(hop.stats().snapshot().dedup_hits, 0);
    }

    #[test]
    fn admission_ladder_sheds_below_the_floor_with_a_shed_reply() {
        let mut hop = HopCore::new(config(vec![]).with_overload(OverloadPolicy {
            shed_high_water: 2,
            ..OverloadPolicy::default()
        }));
        // Backlog 3 (> high water): Sheddable refused, unstamped (Normal)
        // admitted — one decision for the whole batch.
        let out = run(
            &mut hop,
            vec![request(1, budget(Priority::Sheddable)), request(2, None)],
            3,
        );
        let shed = AdmissionShed {
            priority: Priority::Sheddable,
        };
        assert_eq!(kinds(&out), [shed, Forwarded { dst: 2 }]);
        let reply = decode(&out.replays[0]);
        assert_eq!(out.replays[0].dst, 1);
        assert_eq!((reply.kind, reply.call_id), (MessageKind::Response, 1));
        assert!(matches!(reply.status, RpcStatus::Shed));
        // Backlog 9 (> 4× high water): only Critical passes.
        let out = run(
            &mut hop,
            vec![request(3, None), request(4, budget(Priority::Critical))],
            9,
        );
        let shed = AdmissionShed {
            priority: Priority::Normal,
        };
        assert_eq!(kinds(&out), [shed, Forwarded { dst: 2 }]);
        // Refusals are not cached: the same call at zero backlog is admitted.
        let out = run(&mut hop, vec![request(1, budget(Priority::Sheddable))], 0);
        assert_eq!(kinds(&out), [Forwarded { dst: 2 }]);
        assert_eq!(hop.stats().snapshot().shed, 2);
    }

    #[test]
    fn chain_shed_is_cached_and_replayed() {
        let mut hop = counting(vec![Box::new(On(MessageKind::Request, Verdict::Shed))]);
        let out = run(&mut hop, vec![request(5, None)], 0);
        assert_eq!(kinds(&out), [ChainShed { dst: 1 }]);
        assert!(matches!(decode(&out.forwards[0]).status, RpcStatus::Shed));
        let again = run(&mut hop, vec![request(5, None)], 0);
        assert_eq!(kinds(&again), [DedupReplay]);
        assert_eq!(again.replays, out.forwards);
        assert_eq!(runs(&hop), 1, "a retransmit must not re-drive the chain");
        let stats = hop.stats().snapshot();
        assert_eq!((stats.shed, stats.dedup_hits), (1, 1));
    }

    #[test]
    fn response_path_abort_rewrites_status_and_goes_home() {
        let abort = Verdict::Abort {
            code: 9,
            message: "no".into(),
        };
        let mut hop = HopCore::new(config(vec![Box::new(On(MessageKind::Response, abort))]));
        run(&mut hop, vec![request(6, None)], 0);
        let out = run(&mut hop, vec![response(6)], 0);
        assert_eq!(kinds(&out), [Aborted { code: 9, dst: 1 }]);
        assert_eq!(out.forwards[0].dst, 1);
        let reply = decode(&out.forwards[0]);
        assert!(matches!(reply.status, RpcStatus::Aborted { code: 9, .. }));
        assert_eq!(hop.stats().snapshot().aborted, 1);
    }
}
