//! Property tests for the sans-IO shard router: no byte sequence makes
//! `ShardRouter::route` panic, every frame gets exactly one answer, every
//! refusal is counted under its reason, and well-formed frames route where
//! `shard_of` and the inherited flows say.

use std::collections::HashMap;
use std::sync::Arc;

use adn_dataplane::scaleout::{shard_of, Refusal, Route, ShardRouter};
use adn_rpc::message::{MessageKind, RpcMessage};
use adn_rpc::schema::{MethodDef, RpcSchema, ServiceSchema};
use adn_rpc::transport::Frame;
use adn_rpc::value::{Value, ValueType};
use adn_rpc::wire_format::encode_message_to_vec;
use proptest::arbitrary::any;
use proptest::collection::vec;
use proptest::{prop_assert, prop_assert_eq, proptest};

const INSTANCES: [u64; 3] = [10, 11, 12];

fn schema(fields: &[&str]) -> Arc<RpcSchema> {
    let mut b = RpcSchema::builder();
    for f in fields {
        b = b.field(*f, ValueType::U64);
    }
    Arc::new(b.build().unwrap())
}

/// Method 1's request carries the shard field (index 1); method 2's
/// request schema is one field short of it.
fn service() -> Arc<ServiceSchema> {
    let method = |id, request: Arc<RpcSchema>| MethodDef {
        id,
        name: format!("m{id}"),
        request,
        response: schema(&["ok"]),
    };
    Arc::new(
        ServiceSchema::new(
            "S",
            vec![
                method(1, schema(&["key", "tag"])),
                method(2, schema(&["key"])),
            ],
        )
        .unwrap(),
    )
}

/// A router over three instances that inherited flows for calls 0..4.
fn router() -> ShardRouter {
    let flows: HashMap<u64, u64> = (0..4).map(|c| (c, 100 + c)).collect();
    ShardRouter::new(INSTANCES.to_vec(), service(), 1, flows)
}

const REFUSALS: [Refusal; 3] = [Refusal::Malformed, Refusal::NoShardField, Refusal::NoFlow];

/// The router's counters: forwards, then refusals in `REFUSALS` order.
fn counts(router: &ShardRouter) -> [u64; 4] {
    let [a, b, c] = REFUSALS.map(|why| router.refused(why));
    [router.forwarded(), a, b, c]
}

/// Routes one frame and checks the answer against the router's own
/// bookkeeping: a forward targets an instance, a home route consumes the
/// flow it used, and exactly the counter of the answer moves by one.
fn route_checked(router: &mut ShardRouter, payload: Vec<u8>) -> Result<Route, String> {
    let (before, flows) = (counts(router), router.flows().clone());
    let route = router.route(&Frame {
        src: 1,
        dst: 5,
        payload,
    });
    let after = counts(router);
    let mut expected = before;
    match route {
        Route::Forward(dst) if !INSTANCES.contains(&dst) => {
            return Err(format!("forwarded to non-instance {dst}"))
        }
        Route::Forward(_) => expected[0] += 1,
        Route::Home(dst) => {
            let consumed: Vec<_> = flows
                .iter()
                .filter(|(c, _)| !router.flows().contains_key(c))
                .collect();
            if consumed.len() != 1 || *consumed[0].1 != dst {
                return Err(format!("home route to {dst} consumed {consumed:?}"));
            }
        }
        Route::Refused(why) => expected[1 + why as usize] += 1,
    }
    if after != expected {
        return Err(format!(
            "{route:?} moved the counters from {before:?} to {after:?}"
        ));
    }
    Ok(route)
}

fn message(kind: MessageKind, call_id: u64, method: u16, key: u64, tag: u64) -> RpcMessage {
    let svc = service();
    let request = svc
        .method_by_id(method)
        .map_or_else(|| schema(&["key", "tag"]), |m| m.request.clone());
    let mut msg = RpcMessage::request(call_id, method, request.clone()).with("key", key);
    if request.len() > 1 {
        msg.set("tag", Value::U64(tag));
    }
    msg.kind = kind;
    msg
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_and_are_counted(
        frames in vec(vec(any::<u8>(), 0..48), 1..16),
    ) {
        let mut r = router();
        for payload in frames {
            let route = route_checked(&mut r, payload);
            prop_assert!(route.is_ok(), "{:?}", route);
        }
    }

    /// Valid encodings, optionally corrupted at one byte and truncated.
    #[test]
    fn corrupted_frames_never_panic_and_intact_ones_route_by_key(
        response in any::<bool>(),
        call_id in 0u64..8,
        method in 1u16..=3,
        key in any::<u64>(),
        tag in any::<u64>(),
        corrupt in any::<bool>(),
        at in any::<usize>(),
        flip in 1u8..=255,
        cut in any::<usize>(),
    ) {
        let kind = if response { MessageKind::Response } else { MessageKind::Request };
        let mut payload = encode_message_to_vec(&message(kind, call_id, method, key, tag)).unwrap();
        let len = payload.len();
        if corrupt {
            payload[at % len] ^= flip;
            payload.truncate(cut % (len + 1));
        }
        let mut r = router();
        let route = route_checked(&mut r, payload);
        prop_assert!(route.is_ok(), "{:?}", route);
        if corrupt {
            return Ok(());
        }
        let expected = match (kind, method) {
            (MessageKind::Response, _) if call_id < 4 => Route::Home(100 + call_id),
            (MessageKind::Response, _) => Route::Refused(Refusal::NoFlow),
            (MessageKind::Request, 1) => {
                Route::Forward(INSTANCES[shard_of(&Value::U64(tag), INSTANCES.len())])
            }
            (MessageKind::Request, 2) => Route::Refused(Refusal::NoShardField),
            (MessageKind::Request, _) => Route::Refused(Refusal::Malformed),
        };
        prop_assert_eq!(route.unwrap(), expected);
    }
}
