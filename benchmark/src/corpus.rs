//! The four workloads and their seeded inputs.
//!
//! Everything the program under test receives is generated here from
//! `--seed`, before the timed window opens: the same seed gives the same
//! bytes.

use std::sync::Arc;

use adn::harness::{object_store_schemas, object_store_service};
use adn::rpc::message::RpcMessage;
use adn::rpc::schema::ServiceSchema;
use adn::rpc::transport::Frame;
use adn::rpc::value::Value;
use adn::rpc::wire_format::encode_message_to_vec;

/// Flat address of the load generator: it sends the requests, and both the
/// forwarded requests and the aborted replies come back to it, so one
/// channel carries every completion.
pub const LOADGEN: u64 = 100;
/// Flat address of the processor in the forwarding workloads.
pub const PROC: u64 = 5;
/// First call id of a forwarding ring; ring slot `i` carries `CALL_BASE + i`.
pub const CALL_BASE: u64 = 1_000;
/// Entries the processor's dedup caches retain
/// (`adn_dataplane::processor::PROCESSOR_DEDUP_WINDOW`, crate-private). A
/// ring must be longer, so that a recycled call id has left the window and
/// is a fresh request again instead of a replayed one.
pub const PROCESSOR_DEDUP_WINDOW: usize = 4096;

/// The paper's user mix: three writers, one of them twice, and one reader
/// the ACL denies.
pub const USERS: [&str; 5] = ["alice", "carol", "dave", "alice", "bob"];

/// What `Tagger` adds to `object_id`.
pub const TAG_OFFSET: u64 = 1_000_000;

/// Reads `len(payload)`, writes `object_id`, leaves the payload alone: the
/// smallest element that makes the processor re-encode a changed message.
pub const TAGGER_DSL: &str = r#"
element Tagger(cutoff: u64 = 1024) {
    on request {
        SET object_id = input.object_id + 1000000 WHERE len(input.payload) > cutoff;
        SELECT * FROM input;
    }
}
"#;

/// How the generator's frames reach the processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    InProc,
    TcpLoopback,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Generator → one processor → back to the generator; requests only.
    Forward(Transport),
    /// `AdnWorld`: client → sidecar processor → echo server and back.
    Rpc,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Catalog names or [`TAGGER_DSL`], in chain order.
    pub chain: &'static [&'static str],
    pub payload_len: usize,
    /// Distinct pre-built requests, recycled in order.
    pub ring_len: usize,
    /// Requests outstanding before the generator waits.
    pub window: usize,
    /// Frames per `send_batch` (forwarding workloads).
    pub chunk: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fwd_small",
        kind: Kind::Forward(Transport::InProc),
        chain: &[],
        payload_len: 16,
        ring_len: 16_384,
        window: 2048,
        chunk: 256,
    },
    Workload {
        name: "chain_rpc",
        kind: Kind::Rpc,
        chain: &["Logging", "Acl", "Fault"],
        payload_len: 25,
        ring_len: 16_384,
        window: 128,
        chunk: 1,
    },
    Workload {
        name: "fwd_small_tcp",
        kind: Kind::Forward(Transport::TcpLoopback),
        chain: &[],
        payload_len: 16,
        ring_len: 16_384,
        window: 2048,
        chunk: 256,
    },
    Workload {
        name: "bulk_mutate",
        kind: Kind::Forward(Transport::InProc),
        chain: &["Acl", "Tagger"],
        payload_len: 16 * 1024,
        ring_len: 6_144,
        window: 512,
        chunk: 64,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// splitmix64: small, seedable, and owned by the benchmark, so the corpus
/// for a seed never changes with a library.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let word = self.next_u64().to_le_bytes();
            let take = (len - out.len()).min(8);
            out.extend_from_slice(&word[..take]);
        }
        out
    }
}

/// The generated inputs of one workload.
pub struct Corpus {
    pub service: Arc<ServiceSchema>,
    /// Requests in ring order (call id 0; the RPC client assigns its own).
    /// Empty for forwarding workloads, which keep only the encoded frames.
    pub requests: Vec<RpcMessage>,
    /// Pre-encoded frames in ring order, addressed to [`PROC`]. Empty for
    /// the RPC workload.
    pub frames: Vec<Frame>,
}

impl Corpus {
    pub fn generate(w: &Workload, seed: u64) -> Self {
        let service = object_store_service();
        let (request_schema, _) = object_store_schemas();
        let mut rng = Rng::new(seed);
        let mut requests = Vec::new();
        let mut frames = Vec::new();
        for i in 0..w.ring_len {
            let mut msg = RpcMessage::request(0, 1, request_schema.clone());
            msg.set("object_id", Value::U64(rng.next_u64() % TAG_OFFSET));
            msg.set("username", Value::Str(USERS[i % USERS.len()].to_owned()));
            msg.set("payload", Value::Bytes(rng.bytes(w.payload_len)));
            match w.kind {
                Kind::Rpc => requests.push(msg),
                Kind::Forward(_) => {
                    msg.call_id = CALL_BASE + i as u64;
                    msg.src = LOADGEN;
                    msg.dst = LOADGEN;
                    let mut payload = encode_message_to_vec(&msg).expect("request encodes");
                    payload.shrink_to_fit();
                    frames.push(Frame {
                        src: LOADGEN,
                        dst: PROC,
                        payload,
                    });
                }
            }
        }
        Self {
            service,
            requests,
            frames,
        }
    }

    /// Heap bytes the ring holds: the generator's own memory, subtracted
    /// from the process's peak to leave the program's.
    pub fn heap_bytes(&self) -> usize {
        let frames: usize = self
            .frames
            .iter()
            .map(|f| f.payload.capacity() + std::mem::size_of::<Frame>())
            .sum();
        let requests: usize = self
            .requests
            .iter()
            .map(|m| m.size_hint() + std::mem::size_of::<RpcMessage>())
            .sum();
        frames + requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in &WORKLOADS {
            // A short ring keeps the 16 KiB workload cheap to generate.
            let short = Workload { ring_len: 64, ..*w };
            let a = Corpus::generate(&short, 7);
            let b = Corpus::generate(&short, 7);
            let c = Corpus::generate(&short, 8);
            assert_eq!(a.frames, b.frames, "{}", w.name);
            assert_eq!(a.requests, b.requests, "{}", w.name);
            assert!(
                a.frames != c.frames || a.requests != c.requests,
                "{}: seeds 7 and 8 gave the same corpus",
                w.name
            );
        }
    }

    #[test]
    fn rings_outlast_the_dedup_window_and_hold_distinct_call_ids() {
        for w in WORKLOADS.iter().filter(|w| w.kind != Kind::Rpc) {
            assert!(w.ring_len > PROCESSOR_DEDUP_WINDOW, "{}", w.name);
            assert!(w.ring_len > w.window, "{}", w.name);
            assert_eq!(w.window % w.chunk, 0, "{}", w.name);
        }
        let w = workload("fwd_small").unwrap();
        let corpus = Corpus::generate(w, 42);
        let mut ids: Vec<u64> = corpus
            .frames
            .iter()
            .map(|f| {
                adn::rpc::wire_format::peek_envelope(&f.payload)
                    .expect("envelope")
                    .call_id
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), w.ring_len);
        assert_eq!(ids[0], CALL_BASE);
    }

    #[test]
    fn workload_names_are_stable() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            ["fwd_small", "chain_rpc", "fwd_small_tcp", "bulk_mutate"]
        );
        assert!(workload("nope").is_none());
    }
}
