//! One repetition of a workload, as a user of the library runs it: synthesise
//! the traces, build the simulation, run it and render the result JSON.
//! Also the output check every repetition passes.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use zng_gpu::WarpOp;
use zng_json::Value;
use zng_platforms::{PlatformKind, RunResult, SimConfig, Simulation};
use zng_types::Result;
use zng_workloads::{MultiApp, TraceParams};

use crate::trace::{Layer, Tracer};

/// Host times of one repetition, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Timings {
    /// `MultiApp::from_names`.
    pub gen_s: f64,
    /// `Simulation::new`.
    pub new_s: f64,
    /// `Simulation::run`.
    pub run_s: f64,
    /// `RunResult::to_json_value` plus pretty rendering.
    pub json_s: f64,
}

impl Timings {
    /// Trace synthesis plus simulation set-up.
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.new_s
    }

    /// Trace synthesis through rendered JSON.
    pub fn wall_s(&self) -> f64 {
        self.gen_s + self.new_s + self.run_s + self.json_s
    }
}

/// What one repetition produced.
#[derive(Debug)]
pub struct Rep {
    /// Host times.
    pub timings: Timings,
    /// The simulation's result.
    pub result: RunResult,
    /// The generated mix (kept for the replay and the output check).
    pub mix: MultiApp,
    /// Bytes of the rendered JSON.
    pub json_bytes: usize,
    /// Digest of the rendered JSON without its `perf_*` wall-clock keys.
    pub digest: Digest,
}

/// Length and hash of a rendered document: two repetitions agree
/// byte-for-byte when their digests are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    fn of(text: &str) -> Digest {
        let mut h = DefaultHasher::new();
        text.hash(&mut h);
        Digest {
            len: text.len(),
            hash: h.finish(),
        }
    }
}

/// Runs one repetition, recording a span per library call on `tracer`.
///
/// # Errors
///
/// Propagates workload, configuration and simulation errors.
pub fn run_rep(
    platform: PlatformKind,
    names: &[&str],
    params: &TraceParams,
    cfg: &SimConfig,
    tracer: &mut Tracer,
) -> Result<Rep> {
    let t0 = Instant::now();
    let mix = tracer.span(Layer::WorkloadsGen, || MultiApp::from_names(names, params))?;
    let t1 = Instant::now();
    let mut sim = tracer.span(Layer::PlatformsNew, || Simulation::new(platform, cfg))?;
    let t2 = Instant::now();
    let result = tracer.span(Layer::SimRun, || sim.run(&mix))?;
    let t3 = Instant::now();
    let (mut value, json_bytes) = tracer.span(Layer::ReportJson, || {
        let value = result.to_json_value();
        let rendered = std::hint::black_box(value.to_string_pretty());
        (value, rendered.len())
    });
    let t4 = Instant::now();
    drop(sim);
    if let Value::Object(fields) = &mut value {
        fields.retain(|(key, _)| !key.starts_with("perf_"));
    }
    Ok(Rep {
        timings: Timings {
            gen_s: (t1 - t0).as_secs_f64(),
            new_s: (t2 - t1).as_secs_f64(),
            run_s: (t3 - t2).as_secs_f64(),
            json_s: (t4 - t3).as_secs_f64(),
        },
        result,
        mix,
        json_bytes,
        digest: Digest::of(&value.to_string_compact()),
    })
}

/// Coalesced 128 B requests and instructions the generated traces
/// contain: what a complete run must report.
pub fn expected_counts(mix: &MultiApp) -> (u64, u64) {
    let mut sectors = Vec::with_capacity(32);
    let (mut requests, mut instructions) = (0u64, 0u64);
    for trace in mix.apps.iter().flat_map(|(_, _, traces)| traces) {
        instructions += trace.instructions();
        for op in trace.ops() {
            if let WarpOp::Mem { base, pattern, .. } = op {
                sectors.clear();
                pattern.sectors_into(base.raw(), &mut sectors);
                requests += sectors.len() as u64;
            }
        }
    }
    (requests, instructions)
}

/// Warp memory operations across the mix.
pub fn warp_ops(mix: &MultiApp) -> u64 {
    mix.apps
        .iter()
        .flat_map(|(_, _, traces)| traces)
        .map(|t| t.mem_ops() as u64)
        .sum()
}

/// Checks a repetition: the counts must match the generated traces and
/// the JSON must match `reference`, the digest of the first repetition
/// of the same platform and trace set, if there was one. Returns a
/// description of the first mismatch.
pub fn check(rep: &Rep, reference: Option<Digest>) -> std::result::Result<(), String> {
    let (requests, instructions) = expected_counts(&rep.mix);
    if rep.result.requests != requests {
        return Err(format!(
            "requests {} != {} coalesced sectors in the traces",
            rep.result.requests, requests
        ));
    }
    if rep.result.instructions != instructions {
        return Err(format!(
            "instructions {} != {} in the traces",
            rep.result.instructions, instructions
        ));
    }
    if reference.is_some_and(|first| first != rep.digest) {
        return Err("result JSON differs from the first repetition's".into());
    }
    Ok(())
}
