//! Pins the interpreter's observable behaviour on every suite lambda.
//!
//! Each line of `interp_pins.txt` is one execution on a seeded payload:
//! the return code, the response length and FNV-1a hash, and the full
//! [`ExecStats`](lnic_mlambda::interp::ExecStats) the NIC and host cost
//! models turn into time. The values were recorded with the original
//! `Instr`-walking interpreter; any interpreter must reproduce them
//! exactly, or every simulated latency and trace hash moves. The image
//! cases also pin the fuel boundary: one instruction short of a full
//! run faults with exactly that many instructions counted.
//!
//! The `sweep` lines pin every fuel limit at once: for each suite lambda
//! on one small payload, the outcome, the full `ExecStats` and a hash of
//! object memory at every fuel `k` in `0..=n`, folded into one digest.
//! A stop anywhere inside a straight-line run or a fused op pair must
//! leave exactly what stepping one instruction at a time leaves.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use lnic_kv::protocol::{Request, Response};
use lnic_mlambda::compile::{compile, CompileOptions};
use lnic_mlambda::interp::{
    run_to_completion, Code, ExecError, Execution, ObjectMemory, RequestCtx, StepOutcome,
};
use lnic_mlambda::program::Program;
use lnic_workloads::kv::{get_request_payload, set_request_payload};
use lnic_workloads::suite::{
    benchmark_program, image_program, kv_get_program, kv_set_program, three_web_servers,
    web_program, SuiteConfig,
};
use lnic_workloads::tenants::tenant_fleet_program;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PINS: &str = include_str!("interp_pins.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A deterministic memcached stand-in: even users hit, odd users miss,
/// every SET is stored.
fn kv_serve(_service: u16, req: Bytes) -> Bytes {
    let resp = match Request::decode(&req) {
        Ok(Request::Get { key }) => {
            let user: u32 = key.trim_start_matches("user:").parse().unwrap_or(1);
            if user.is_multiple_of(2) {
                Response::Value {
                    value: Bytes::from(format!("value-of-{key}")),
                    key,
                    flags: 0,
                }
            } else {
                Response::Miss
            }
        }
        Ok(Request::Set { .. }) => Response::Stored,
        _ => Response::Error,
    };
    resp.encode()
}

fn random_bytes(rng: &mut SmallRng, len: usize) -> Bytes {
    Bytes::from((0..len).map(|_| rng.gen::<u8>()).collect::<Vec<_>>())
}

fn optimized(p: &Program) -> Program {
    compile(p, &CompileOptions::optimized())
        .expect("suite programs compile")
        .program
}

/// `(case name, program, lambda index, payloads)` for every suite
/// lambda, naive and compiled.
fn cases() -> Vec<(String, Arc<Program>, usize, Vec<Bytes>)> {
    let cfg = SuiteConfig::default();
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let mut out = Vec::new();
    let web_payloads: Vec<Bytes> = (0..6)
        .map(|_| Bytes::copy_from_slice(&rng.gen_range(0u16..72).to_be_bytes()))
        .chain([Bytes::new()])
        .collect();
    let images: Vec<Bytes> = [16usize, 16, 128]
        .iter()
        .map(|&side| random_bytes(&mut rng, side * side * 4))
        .collect();
    let gets: Vec<Bytes> = (0..4)
        .map(|_| get_request_payload(rng.gen_range(0..10_000)))
        .collect();
    let sets: Vec<Bytes> = (0..3)
        .map(|_| {
            let len = rng.gen_range(1..40);
            let value = random_bytes(&mut rng, len);
            set_request_payload(rng.gen_range(0..10_000), &value)
        })
        .collect();
    for (build, f) in [
        (
            "naive",
            (|p: &Program| p.clone()) as fn(&Program) -> Program,
        ),
        ("optimized", optimized),
    ] {
        let web = Arc::new(f(&web_program(&cfg)));
        out.push((format!("web@{build}"), web, 0, web_payloads.clone()));
        let image = Arc::new(f(&image_program(&cfg)));
        out.push((format!("image@{build}"), image, 0, images.clone()));
        let get = Arc::new(f(&kv_get_program()));
        out.push((format!("kv_get@{build}"), get, 0, gets.clone()));
        let set = Arc::new(f(&kv_set_program()));
        out.push((format!("kv_set@{build}"), set, 0, sets.clone()));
        let tenants = Arc::new(f(&tenant_fleet_program(3, 5)));
        for i in 0..3 {
            out.push((
                format!("tenant{i}@{build}"),
                Arc::clone(&tenants),
                i,
                vec![Bytes::new()],
            ));
        }
        let webs = Arc::new(f(&three_web_servers()));
        for i in 0..3 {
            out.push((
                format!("web3_{i}@{build}"),
                Arc::clone(&webs),
                i,
                [0u16, 1, 70]
                    .map(|page| Bytes::copy_from_slice(&page.to_be_bytes()))
                    .to_vec(),
            ));
        }
        // The combined §6.4 program: coalescing moves helpers into the
        // shared library, so this exercises cross-lambda shared calls.
        let all = Arc::new(f(&benchmark_program(&cfg)));
        let mixed = [
            gets[0].clone(),
            sets[0].clone(),
            web_payloads[0].clone(),
            images[0].clone(),
        ];
        for (i, payload) in mixed.into_iter().enumerate() {
            out.push((
                format!("suite{i}@{build}"),
                Arc::clone(&all),
                i,
                vec![payload],
            ));
        }
    }
    out
}

#[test]
fn suite_lambdas_reproduce_pinned_results() {
    let mut got = Vec::new();
    for (name, program, idx, payloads) in cases() {
        // One object memory per case: state carried between requests is
        // part of what is pinned.
        let mut mem = ObjectMemory::for_lambda(&program.lambdas[idx]);
        for (i, payload) in payloads.into_iter().enumerate() {
            let ctx = RequestCtx {
                payload,
                ..RequestCtx::default()
            };
            let done = run_to_completion(&program, idx, ctx, &mut mem, 10_000_000, kv_serve)
                .unwrap_or_else(|e| panic!("{name} #{i} faulted: {e}"));
            got.push(format!(
                "{name} #{i}: rc={} resp={}/{:016x} {:?}",
                done.return_code,
                done.response.len(),
                fnv1a(&done.response),
                done.stats
            ));
        }
    }
    let want: Vec<&str> = PINS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with("sweep "))
        .collect();
    let diff: BTreeMap<usize, (&str, &str)> = want
        .iter()
        .zip(&got)
        .enumerate()
        .filter(|(_, (w, g))| **w != g.as_str())
        .map(|(i, (w, g))| (i, (*w, g.as_str())))
        .collect();
    assert!(
        diff.is_empty() && want.len() == got.len(),
        "{} of {} pinned executions differ ({} pinned); first: {:?}\nall results:\n{}",
        diff.len(),
        got.len(),
        want.len(),
        diff.values().next(),
        got.join("\n")
    );
}

/// With fuel one short of the instructions a run needs, the image
/// lambda faults having counted exactly that many; with exactly enough
/// fuel it completes.
#[test]
fn image_lambda_fuel_boundary_is_exact() {
    let cfg = SuiteConfig::default();
    let program = Arc::new(optimized(&image_program(&cfg)));
    let code = Arc::new(Code::decode(&program).expect("suite programs decode"));
    let mut rng = SmallRng::seed_from_u64(7);
    let ctx = RequestCtx {
        payload: random_bytes(&mut rng, 16 * 16 * 4),
        ..RequestCtx::default()
    };
    let run = |fuel| {
        let mut mem = ObjectMemory::for_lambda(&program.lambdas[0]);
        let mut exec = Execution::start(Arc::clone(&code), 0, ctx.clone(), fuel);
        let outcome = exec.run(&mut mem);
        (outcome, exec.stats().clone())
    };
    let (full, full_stats) = run(u64::MAX);
    let Ok(StepOutcome::Done(done)) = full else {
        panic!("unbounded run completes: {full:?}");
    };
    let n = full_stats.instrs;
    assert_eq!(done.stats, full_stats);
    let (short, short_stats) = run(n - 1);
    assert_eq!(short, Err(ExecError::FuelExhausted));
    assert_eq!(short_stats.instrs, n - 1);
    let (exact, exact_stats) = run(n);
    assert!(matches!(exact, Ok(StepOutcome::Done(_))), "{exact:?}");
    assert_eq!(exact_stats, full_stats);
}

/// Runs `code`'s lambda `idx` over `payload` with `fuel`, answering RPCs
/// with [`kv_serve`], and returns the final outcome (the return code and
/// response hash on completion) with its text: that outcome, the counters
/// and a hash of object memory.
fn run_with_fuel(
    program: &Program,
    code: &Arc<Code>,
    idx: usize,
    payload: &Bytes,
    fuel: u64,
) -> (Result<(u64, u64), ExecError>, String) {
    let mut mem = ObjectMemory::for_lambda(&program.lambdas[idx]);
    let ctx = RequestCtx {
        payload: payload.clone(),
        ..RequestCtx::default()
    };
    let mut exec = Execution::start(Arc::clone(code), idx, ctx, fuel);
    let mut outcome = exec.run(&mut mem);
    while let Ok(StepOutcome::NetCall { service, payload }) = outcome {
        outcome = exec.resume(&mut mem, &kv_serve(service, payload));
    }
    let objects = program.lambdas[idx].objects.len();
    let mem_hash = (0..objects).fold(0u64, |h, o| h ^ fnv1a(mem.object(o)).rotate_left(o as u32));
    let outcome = outcome.map(|o| match o {
        StepOutcome::Done(done) => {
            assert_eq!(&done.stats, exec.stats());
            (done.return_code, fnv1a(&done.response))
        }
        StepOutcome::NetCall { .. } => unreachable!("the loop above answers every RPC"),
    });
    let text = format!("{outcome:?} {:?} {mem_hash:016x}", exec.stats());
    (outcome, text)
}

#[test]
fn every_fuel_limit_stops_exactly() {
    // Seven pixels: one pass of the 4x-unrolled loop, then the tail loop.
    let small_image = random_bytes(&mut SmallRng::seed_from_u64(11), 7 * 4);
    let mut got = Vec::new();
    for (name, program, idx, payloads) in cases() {
        let payload = if name.starts_with("image@") || name.starts_with("suite3@") {
            small_image.clone()
        } else {
            payloads[0].clone()
        };
        let code = Arc::new(Code::decode(&program).expect("suite programs decode"));
        let (full, _) = run_with_fuel(&program, &code, idx, &payload, u64::MAX);
        assert!(full.is_ok(), "{name}: unbounded run completes: {full:?}");
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let n = (0u64..)
            .find(|&k| {
                let (outcome, text) = run_with_fuel(&program, &code, idx, &payload, k);
                digest = (digest ^ fnv1a(text.as_bytes())).wrapping_mul(0x0100_0000_01b3);
                if outcome.is_err() {
                    assert_eq!(outcome, Err(ExecError::FuelExhausted), "{name} at fuel {k}");
                }
                outcome.is_ok()
            })
            .expect("a run with enough fuel completes");
        got.push(format!("sweep {name}: n={n} digest={digest:016x}"));
    }
    let want: Vec<&str> = PINS.lines().filter(|l| l.starts_with("sweep ")).collect();
    assert_eq!(want, got, "all sweep results:\n{}", got.join("\n"));
}
