//! The key-value client benchmark lambdas (§6.2b).
//!
//! "We implement lambdas acting as key-value clients that generate write
//! (SET) and read (GET) requests to a memcached server." Two distinct
//! lambdas — a GET client and a SET client — build real memcached text
//! protocol bytes in lambda memory, issue the query as a synchronous
//! network RPC (§4.2-D3), and process the response.
//!
//! Both clients install byte-identical packet-generation and
//! response-classification helpers, which is exactly the duplicated
//! logic §6.4 reports lambda coalescing merging: "we coalesce these
//! lambdas, as they contain equivalent logic to generate a new packet to
//! query memcached".
//!
//! Object convention (see [`crate::helpers`]): object 0 is the request
//! buffer (init `get user:` / `set user:`), object 1 is the response
//! buffer.

use bytes::Bytes;
use lnic_mlambda::builder::FnBuilder;
use lnic_mlambda::ir::{retcode, AluOp, Cmp, HeaderField, Width};
use lnic_mlambda::program::{Lambda, MemObject, Pragma, WorkloadId};

use crate::helpers::{
    classify_kv_response_helper, format_decimal_helper, parse_value_helper, DATA as RESPBUF,
    SCRATCH as NETBUF,
};
pub use crate::helpers::{
    classify_kv_response_helper as classify_helper, parse_value_helper as parse_helper,
};

/// The logical service id of the memcached server.
pub const KV_SERVICE: u16 = 1;

/// Appends one literal byte to the request buffer at `r11`, advancing it.
fn append_byte(b: FnBuilder, byte: u8) -> FnBuilder {
    b.constant(5, byte as u64)
        .store(NETBUF, 11, 5, Width::B1)
        .alu_imm(AluOp::Add, 11, 11, 1)
}

/// Builds the GET client: payload carries a 4-byte user id; the lambda
/// queries `user:<id>` and responds with the retrieved value.
///
/// Local functions: 1 = format_decimal, 2 = parse_value, 3 = classify.
pub fn kv_get_client_lambda(id: WorkloadId) -> Lambda {
    let mut b = FnBuilder::new("kv_get_client");
    let fail = b.label();
    b = b
        .load_hdr(2, HeaderField::PayloadLen)
        .constant(1, 4)
        .branch(Cmp::Lt, 2, 1, fail)
        .constant(1, 0)
        .load_payload(3, 1, Width::B4)
        .mov(10, 3)
        .constant(11, 9) // after "get user:"
        .call_local(1);
    b = append_byte(b, b'\r');
    b = append_byte(b, b'\n');
    b = b
        .constant(12, 0)
        .mov(13, 11)
        .constant(14, 0)
        .constant(15, 2048)
        .net_rpc(KV_SERVICE, NETBUF, 12, 13, RESPBUF, 14, 15, 16)
        // Classify then parse; a miss/err response fails the request.
        .call_local(3)
        .constant(5, 128)
        .store(NETBUF, 5, 23, Width::B1) // response-class log
        .constant(5, 1)
        .branch(Cmp::Ne, 23, 5, fail)
        .call_local(2)
        .constant(5, 0)
        .branch(Cmp::Ne, 22, 5, fail)
        .emit_obj(RESPBUF, 20, 21)
        .ret_const(0)
        .place(fail);
    let f = b.ret_const(retcode::ERROR).build();

    let mut lambda = Lambda::new("kv_get_client", id, f);
    lambda.add_object(MemObject {
        name: "netbuf".into(),
        size: 256,
        init: b"get user:".to_vec(),
        pragma: Pragma::Hot,
    });
    lambda.add_object(MemObject::zeroed("respbuf", 2048));
    lambda.add_function(format_decimal_helper());
    lambda.add_function(parse_value_helper());
    lambda.add_function(classify_kv_response_helper());
    lambda
}

/// Builds the SET client: payload carries a 4-byte user id followed by
/// the value bytes; the lambda stores `user:<id>` and echoes the
/// server's confirmation.
///
/// Local functions: 1 = format_decimal, 2 = classify.
pub fn kv_set_client_lambda(id: WorkloadId) -> Lambda {
    let mut b = FnBuilder::new("kv_set_client");
    let fail = b.label();
    let stored = b.label();
    b = b
        .load_hdr(2, HeaderField::PayloadLen)
        .constant(1, 4)
        .branch(Cmp::Lt, 2, 1, fail)
        .constant(1, 0)
        .load_payload(3, 1, Width::B4)
        .mov(10, 3)
        .constant(11, 9) // after "set user:"
        .call_local(1);
    for byte in *b" 0 0 " {
        b = append_byte(b, byte);
    }
    b = b
        .alu_imm(AluOp::Sub, 17, 2, 4) // value length
        .mov(10, 17)
        .call_local(1);
    b = append_byte(b, b'\r');
    b = append_byte(b, b'\n');
    b = b
        .constant(12, 4)
        .payload_to_obj(NETBUF, 12, 11, 17)
        .alu(AluOp::Add, 11, 11, 17);
    b = append_byte(b, b'\r');
    b = append_byte(b, b'\n');
    b = b
        .constant(12, 0)
        .mov(13, 11)
        .constant(14, 0)
        .constant(15, 256)
        .net_rpc(KV_SERVICE, NETBUF, 12, 13, RESPBUF, 14, 15, 16)
        .call_local(2)
        .constant(5, 128)
        .store(NETBUF, 5, 23, Width::B1) // response-class log
        .constant(5, 2)
        .branch(Cmp::Eq, 23, 5, stored)
        .jump(fail)
        .place(stored)
        .constant(14, 0)
        .emit_obj(RESPBUF, 14, 16)
        .ret_const(0)
        .place(fail);
    let f = b.ret_const(retcode::ERROR).build();

    let mut lambda = Lambda::new("kv_set_client", id, f);
    lambda.add_object(MemObject {
        name: "netbuf".into(),
        size: 4096,
        init: b"set user:".to_vec(),
        pragma: Pragma::Hot,
    });
    lambda.add_object(MemObject::zeroed("respbuf", 256));
    lambda.add_function(format_decimal_helper());
    lambda.add_function(classify_kv_response_helper());
    lambda
}

/// Reference: the request bytes the GET client sends for `user_id`.
pub fn reference_get_request(user_id: u32) -> Vec<u8> {
    format!("get user:{user_id}\r\n").into_bytes()
}

/// Reference: the request bytes the SET client sends.
pub fn reference_set_request(user_id: u32, value: &[u8]) -> Vec<u8> {
    let mut out = format!("set user:{user_id} 0 0 {}\r\n", value.len()).into_bytes();
    out.extend_from_slice(value);
    out.extend_from_slice(b"\r\n");
    out
}

/// Builds a GET request payload (the gateway-visible request format).
pub fn get_request_payload(user_id: u32) -> Bytes {
    Bytes::copy_from_slice(&user_id.to_be_bytes())
}

/// Builds a SET request payload.
pub fn set_request_payload(user_id: u32, value: &[u8]) -> Bytes {
    let mut v = user_id.to_be_bytes().to_vec();
    v.extend_from_slice(value);
    Bytes::from(v)
}

// ---------------------------------------------------------------------
// Replicated NIC-side KV (the raft group spanning NIC workers).
// ---------------------------------------------------------------------

/// The logical service id of the replicated NIC-side KV group.
pub const REPKV_SERVICE: u16 = 2;

/// The workload id replicated-KV requests are addressed to (NIC-resident
/// service, intercepted ahead of the firmware dispatch path).
pub const REPKV_WORKLOAD_ID: u32 = 900;

/// A decoded replicated-KV request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepKvOp {
    /// Read `key`.
    Get {
        /// The key.
        key: u32,
    },
    /// Write `value` to `key`. The value doubles as the write's unique
    /// id for at-most-once application under retries.
    Put {
        /// The key.
        key: u32,
        /// The value (and uid).
        value: u64,
    },
}

/// Builds a replicated-KV GET request payload: `[0, key_be32]`.
pub fn repkv_get_payload(key: u32) -> Bytes {
    let mut v = Vec::with_capacity(5);
    v.push(0);
    v.extend_from_slice(&key.to_be_bytes());
    Bytes::from(v)
}

/// Builds a replicated-KV PUT request payload: `[1, key_be32, value_be64]`.
pub fn repkv_put_payload(key: u32, value: u64) -> Bytes {
    let mut v = Vec::with_capacity(13);
    v.push(1);
    v.extend_from_slice(&key.to_be_bytes());
    v.extend_from_slice(&value.to_be_bytes());
    Bytes::from(v)
}

/// Decodes a replicated-KV request payload.
pub fn decode_repkv_request(payload: &[u8]) -> Option<RepKvOp> {
    match payload.first()? {
        0 if payload.len() == 5 => Some(RepKvOp::Get {
            key: u32::from_be_bytes(payload[1..5].try_into().ok()?),
        }),
        1 if payload.len() == 13 => Some(RepKvOp::Put {
            key: u32::from_be_bytes(payload[1..5].try_into().ok()?),
            value: u64::from_be_bytes(payload[5..13].try_into().ok()?),
        }),
        _ => None,
    }
}

/// Builds a replicated-KV GET response payload: `[found, value_be64]`.
pub fn repkv_get_response(found: bool, value: u64) -> Bytes {
    let mut v = Vec::with_capacity(9);
    v.push(u8::from(found));
    v.extend_from_slice(&value.to_be_bytes());
    Bytes::from(v)
}

/// Decodes a replicated-KV GET response payload.
pub fn decode_repkv_get_response(payload: &[u8]) -> Option<(bool, u64)> {
    if payload.len() != 9 || payload[0] > 1 {
        return None;
    }
    Some((
        payload[0] == 1,
        u64::from_be_bytes(payload[1..9].try_into().ok()?),
    ))
}

/// A read/write-mix and key-popularity knob for KV benchmarks: reads
/// with probability `read_permille`/1000, keys drawn Zipf-distributed
/// with exponent `zipf_milli`/1000 (0 = uniform). Hot-key skew is the
/// regime where linearizability bugs surface — many concurrent ops per
/// key — so benches default to a skewed mix.
#[derive(Clone, Debug)]
pub struct KvMix {
    keys: u32,
    read_permille: u16,
    /// Cumulative key-popularity distribution (monotone, last = 1.0).
    cdf: std::sync::Arc<Vec<f64>>,
}

impl KvMix {
    /// Builds a mix over `keys` keys. `read_permille` is the read share
    /// out of 1000; `zipf_milli` is the Zipf exponent ×1000.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero or `read_permille` exceeds 1000.
    pub fn new(keys: u32, read_permille: u16, zipf_milli: u32) -> Self {
        assert!(keys > 0, "mix needs at least one key");
        assert!(read_permille <= 1000, "read share is out of 1000");
        let s = zipf_milli as f64 / 1000.0;
        let mut weights: Vec<f64> = (1..=keys as u64)
            .map(|rank| 1.0 / (rank as f64).powf(s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        // Guard the tail against floating-point shortfall.
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        KvMix {
            keys,
            read_permille,
            cdf: std::sync::Arc::new(weights),
        }
    }

    /// Number of keys in the working set.
    pub fn keys(&self) -> u32 {
        self.keys
    }

    /// The read share out of 1000.
    pub fn read_permille(&self) -> u16 {
        self.read_permille
    }

    /// Draws whether the next op is a read.
    pub fn sample_read(&self, rng: &mut impl rand::Rng) -> bool {
        rng.gen_range(0u32..1000) < u32::from(self.read_permille)
    }

    /// Draws a key (0-based) by popularity rank: key 0 is the hottest.
    pub fn sample_key(&self, rng: &mut impl rand::Rng) -> u32 {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnic_kv::protocol::{Request, Response};
    use lnic_mlambda::interp::{run_to_completion, ObjectMemory, RequestCtx};
    use lnic_mlambda::program::Program;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// An in-process memcached for driving the lambdas.
    #[derive(Default)]
    struct FakeStore {
        data: HashMap<String, Bytes>,
        requests: Vec<Vec<u8>>,
    }

    impl FakeStore {
        fn serve(&mut self, payload: Bytes) -> Bytes {
            self.requests.push(payload.to_vec());
            let resp = match Request::decode(&payload) {
                Ok(Request::Get { key }) => match self.data.get(&key) {
                    Some(v) => Response::Value {
                        key,
                        flags: 0,
                        value: v.clone(),
                    },
                    None => Response::Miss,
                },
                Ok(Request::Set { key, value, .. }) => {
                    self.data.insert(key, value);
                    Response::Stored
                }
                Ok(Request::Delete { .. }) => Response::Deleted,
                Err(_) => Response::Error,
            };
            resp.encode()
        }
    }

    fn run_client(lambda: Lambda, payload: Bytes, store: &mut FakeStore) -> (u64, Vec<u8>) {
        let mut p = Program::new();
        p.add_lambda(lambda, vec![]);
        p.validate().expect("valid kv client");
        let p = Arc::new(p);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let ctx = RequestCtx {
            payload,
            ..Default::default()
        };
        let done = run_to_completion(&p, 0, ctx, &mut mem, 10_000_000, |svc, req| {
            assert_eq!(svc, KV_SERVICE);
            store.serve(req)
        })
        .expect("kv client completes");
        (done.return_code, done.response.to_vec())
    }

    #[test]
    fn get_client_builds_exact_protocol_bytes() {
        let mut store = FakeStore::default();
        store
            .data
            .insert("user:1234".into(), Bytes::from_static(b"alice"));
        let (rc, out) = run_client(
            kv_get_client_lambda(WorkloadId(2)),
            get_request_payload(1234),
            &mut store,
        );
        assert_eq!(rc, 0);
        assert_eq!(out, b"alice");
        assert_eq!(store.requests[0], reference_get_request(1234));
    }

    #[test]
    fn get_miss_returns_error_code() {
        let mut store = FakeStore::default();
        let (rc, out) = run_client(
            kv_get_client_lambda(WorkloadId(2)),
            get_request_payload(7),
            &mut store,
        );
        assert_eq!(rc, retcode::ERROR);
        assert!(out.is_empty());
    }

    #[test]
    fn set_client_builds_exact_protocol_bytes_and_stores() {
        let mut store = FakeStore::default();
        let (rc, out) = run_client(
            kv_set_client_lambda(WorkloadId(3)),
            set_request_payload(42, b"bob's data"),
            &mut store,
        );
        assert_eq!(rc, 0);
        assert_eq!(out, b"STORED\r\n");
        assert_eq!(store.requests[0], reference_set_request(42, b"bob's data"));
        assert_eq!(
            store.data.get("user:42"),
            Some(&Bytes::from_static(b"bob's data"))
        );
    }

    #[test]
    fn set_then_get_round_trips_through_both_clients() {
        let mut store = FakeStore::default();
        for id in [0u32, 9, 10, 99, 100, 4_294_967_295] {
            let value = format!("value-of-{id}").into_bytes();
            let (rc, _) = run_client(
                kv_set_client_lambda(WorkloadId(3)),
                set_request_payload(id, &value),
                &mut store,
            );
            assert_eq!(rc, 0, "set {id}");
            let (rc, out) = run_client(
                kv_get_client_lambda(WorkloadId(2)),
                get_request_payload(id),
                &mut store,
            );
            assert_eq!(rc, 0, "get {id}");
            assert_eq!(out, value, "id {id}");
        }
    }

    #[test]
    fn short_payload_rejected_without_rpc() {
        let mut store = FakeStore::default();
        let (rc, out) = run_client(
            kv_get_client_lambda(WorkloadId(2)),
            Bytes::from_static(&[1, 2]),
            &mut store,
        );
        assert_eq!(rc, retcode::ERROR);
        assert!(out.is_empty());
        assert!(store.requests.is_empty());
    }

    #[test]
    fn helpers_are_byte_identical_across_clients() {
        let get = kv_get_client_lambda(WorkloadId(2));
        let set = kv_set_client_lambda(WorkloadId(3));
        // format_decimal (both at local index 1).
        assert_eq!(get.functions[1].body, set.functions[1].body);
        // classify (get index 3, set index 2).
        assert_eq!(get.functions[3].body, set.functions[2].body);
    }

    #[test]
    fn coalescing_shares_the_packet_gen_helpers() {
        use lnic_mlambda::compile::coalesce;
        let mut p = Program::new();
        p.add_lambda(kv_get_client_lambda(WorkloadId(2)), vec![]);
        p.add_lambda(kv_set_client_lambda(WorkloadId(3)), vec![]);
        p.validate().unwrap();
        let (out, report) = coalesce(&p);
        out.validate().expect("coalesced kv program validates");
        assert!(report.functions_shared >= 2, "{report:?}");
        assert!(!out.shared.is_empty());
    }

    #[test]
    fn repkv_payloads_roundtrip() {
        assert_eq!(
            decode_repkv_request(&repkv_get_payload(7)),
            Some(RepKvOp::Get { key: 7 })
        );
        assert_eq!(
            decode_repkv_request(&repkv_put_payload(9, 0xDEAD_BEEF)),
            Some(RepKvOp::Put {
                key: 9,
                value: 0xDEAD_BEEF
            })
        );
        assert_eq!(decode_repkv_request(b""), None);
        assert_eq!(decode_repkv_request(&[2, 0, 0, 0, 1]), None);
        assert_eq!(decode_repkv_request(&[0, 0, 0]), None);
        assert_eq!(
            decode_repkv_get_response(&repkv_get_response(true, 42)),
            Some((true, 42))
        );
        assert_eq!(
            decode_repkv_get_response(&repkv_get_response(false, 0)),
            Some((false, 0))
        );
        assert_eq!(decode_repkv_get_response(&[9; 9]), None);
    }

    #[test]
    fn kv_mix_respects_read_share_and_skew() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mix = KvMix::new(100, 900, 990);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let mut reads = 0u32;
        let mut hot = 0u32;
        for _ in 0..n {
            if mix.sample_read(&mut rng) {
                reads += 1;
            }
            let key = mix.sample_key(&mut rng);
            assert!(key < 100);
            if key == 0 {
                hot += 1;
            }
        }
        let read_share = f64::from(reads) / f64::from(n);
        assert!((0.88..0.92).contains(&read_share), "{read_share}");
        // Zipf(0.99) over 100 keys puts ~19% of mass on the hottest key;
        // uniform would put 1%.
        let hot_share = f64::from(hot) / f64::from(n);
        assert!(hot_share > 0.12, "{hot_share}");
    }

    #[test]
    fn kv_mix_uniform_has_no_hot_key() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mix = KvMix::new(10, 500, 0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[mix.sample_key(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "{counts:?}");
        }
    }
}
