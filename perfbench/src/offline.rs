//! `offline_tune`: the developer's offline flow. Compiles the shipped
//! `examples/dsl/*.stats` programs (front-end, middle-end, back-end
//! instantiation), evaluates `get_value` through the shipped
//! `backend::call`, and autotunes one paper workload with
//! `tune_parallel` for a fixed budget, against the serial `tune`.

use std::time::Instant;

use perfbench::{seed, stats, trace, Checks, Report};
use stats_autotune::Objective;
use stats_compiler::backend::{self, DepConfig};
use stats_compiler::bytecode::BytecodeInterp;
use stats_compiler::interp::Value;
use stats_compiler::ir::Module;
use stats_compiler::{frontend, midend};
use stats_profiler::{
    decode, expand_trace, measure, measure_instance, tune, tune_parallel, Mode, RunSettings,
    TuneResult,
};
use stats_workloads::swaptions::Swaptions;
use stats_workloads::{Workload, WorkloadSpec};

use crate::common::{self, Args};

/// Where the compiled programs come from, relative to the repository root.
const DSL_DIR: &str = "examples/dsl";
/// Compilations of each program per round.
const COMPILES: usize = 40;
/// `get_value` calls per round, through each path.
const CALLS: usize = 200;
/// The `get_value` program: a tradeoff value function with a loop.
const GET_VALUE_SRC: &str = "fn get_value(i) {
    let acc = 0.0;
    for k in 0..8 {
        acc = acc + sqrt(i * k + 1) * 0.5;
    }
    if (acc > 100.0) { return acc / 2.0; }
    return acc;
}";
/// The tuned workload's size, the simulated machine's threads, the
/// tuner's budget and its profiling workers.
const TUNE_INPUTS: usize = 32;
const TUNE_THREADS: usize = 8;
const TUNE_BUDGET: usize = 64;
const TUNE_WORKERS: usize = 2;
/// The tuner's own search seed is fixed: the run seed changes the tuned
/// workload's inputs, not the search, whose path sets how much each trial
/// costs.
const SEARCH_SEED: u64 = 0x7E57;

struct Setup {
    sources: Vec<(String, String)>,
    get_value: Module,
    spec: WorkloadSpec,
    search_seed: u64,
    /// Simulated time of the sequential program, the speedup's base.
    sequential_s: f64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let mut sources = Vec::new();
    let dir = std::fs::read_dir(DSL_DIR).map_err(|e| format!("read {DSL_DIR}: {e}"))?;
    for entry in dir {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "stats") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            sources.push((path.display().to_string(), text));
        }
    }
    if sources.is_empty() {
        return Err(format!("no .stats programs in {DSL_DIR}"));
    }
    sources.sort();
    let get_value = frontend::compile(GET_VALUE_SRC)
        .map_err(|e| format!("get_value: {e}"))?
        .module;
    let spec = WorkloadSpec {
        inputs: TUNE_INPUTS,
        seed: seed::derive(seed, "tune_inputs"),
        ..WorkloadSpec::default()
    };
    let sequential = RunSettings::for_mode(&Swaptions, Mode::Sequential, 1);
    Ok(Setup {
        sources,
        get_value,
        spec,
        search_seed: SEARCH_SEED,
        sequential_s: measure(&Swaptions, &spec, &sequential).time_s,
    })
}

/// One compilation, from source to an instantiated module, with the time
/// of each stage in µs.
fn compile(source: &str, traced: bool) -> Result<(Module, [f64; 3]), String> {
    let stage = |name: &'static str| traced.then(|| trace::begin(name, 0, None));
    let close = |span: Option<usize>| {
        if let Some(span) = span {
            trace::end(span);
        }
    };
    let t0 = Instant::now();
    let s = stage("frontend");
    let compiled = frontend::compile(source).map_err(|e| e.to_string());
    close(s);
    let t1 = Instant::now();
    let s = stage("midend");
    let module = compiled.and_then(|c| midend::run(c).map_err(|e| e.to_string()));
    close(s);
    let t2 = Instant::now();
    let s = stage("instantiate");
    let binary =
        module.and_then(|m| backend::instantiate(&m, &DepConfig::new()).map_err(|e| e.to_string()));
    close(s);
    let t3 = Instant::now();
    let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
    Ok((binary?, [us(t0, t1), us(t1, t2), us(t2, t3)]))
}

impl Samples {
    fn new() -> Self {
        Samples {
            compile_ms: common::samples(),
            stage_us: std::array::from_fn(|_| common::samples()),
            ..Samples::default()
        }
    }
}

/// Tuning trials per second over all tunes that took `secs`.
fn trial_rate(secs: &[f64]) -> f64 {
    (TUNE_BUDGET * secs.len()) as f64 / secs.iter().sum::<f64>()
}

fn same_tuning(a: &TuneResult, b: &TuneResult) -> bool {
    a.outcome.best == b.outcome.best
        && a.outcome.history.trials().eq(b.outcome.history.trials())
        && a.best_measurement.time_s == b.best_measurement.time_s
}

#[derive(Default)]
struct Samples {
    /// One sample per compilation; the rest have one per round.
    compile_ms: Vec<f64>,
    stage_us: [Vec<f64>; 3],
    call_ns: Vec<f64>,
    reused_call_ns: Vec<f64>,
    lower_us: Vec<f64>,
    /// Wall seconds of each `tune_parallel` and each serial `tune`.
    parallel_s: Vec<f64>,
    serial_s: Vec<f64>,
    measure_ms: Vec<f64>,
    simulate_ms: Vec<f64>,
    overhead_frac: Vec<f64>,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut clock, s) = common::timed_setup(|| setup(args.seed))?;
    let capacity = perfbench::host::warm_up();

    let workload = Swaptions;
    let mut checks = Checks::default();
    let mut plain_samples = Samples::new();
    let mut traced_samples = Samples::new();
    let mut compiled: Vec<Option<Module>> = vec![None; s.sources.len()];
    let mut values: Option<Vec<Value>> = None;
    let mut first_tuning: Option<TuneResult> = None;
    let (plain, traced) = common::rounds(args, &mut clock, |is_traced| {
        let out = if is_traced {
            &mut traced_samples
        } else {
            &mut plain_samples
        };

        for (k, (name, source)) in s.sources.iter().enumerate() {
            for _ in 0..COMPILES {
                let span = is_traced.then(|| trace::begin("compile", 0, None));
                let start = Instant::now();
                let result = compile(source, is_traced);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                if let Some(span) = span {
                    trace::end(span);
                }
                match result {
                    Ok((module, stages)) => {
                        out.compile_ms.push(ms);
                        for (v, t) in out.stage_us.iter_mut().zip(stages) {
                            v.push(t);
                        }
                        let first = compiled[k].get_or_insert_with(|| module.clone());
                        checks.check(*first == module, || {
                            format!("{name}: compiled module differs")
                        });
                    }
                    Err(e) => checks.check(false, || format!("{name}: {e}")),
                }
            }
        }

        // get_value through the shipped path (lowered on every call), and
        // through one reused interpreter for comparison.
        let args_of = |i: usize| [Value::Int((i % 64) as i64)];
        let start = Instant::now();
        let shipped: Vec<Value> = (0..CALLS)
            .filter_map(|i| {
                backend::call(&s.get_value, "get_value", &args_of(i))
                    .ok()
                    .flatten()
            })
            .collect();
        out.call_ns
            .push(start.elapsed().as_secs_f64() * 1e9 / CALLS as f64);
        let start = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(BytecodeInterp::new(std::hint::black_box(&s.get_value)));
        }
        out.lower_us
            .push(start.elapsed().as_secs_f64() * 1e6 / CALLS as f64);
        let mut interp = BytecodeInterp::new(&s.get_value);
        let start = Instant::now();
        let reused: Vec<Value> = (0..CALLS)
            .filter_map(|i| interp.call("get_value", &args_of(i)).ok().flatten())
            .collect();
        out.reused_call_ns
            .push(start.elapsed().as_secs_f64() * 1e9 / CALLS as f64);
        let first = values.get_or_insert_with(|| shipped.clone());
        checks.check(
            shipped.len() == CALLS && *first == shipped && reused == shipped,
            || "get_value: shipped and reused interpreters disagree".to_string(),
        );

        let span = is_traced.then(|| trace::begin("tune_parallel", 0, None));
        let start = Instant::now();
        let parallel = tune_parallel(
            &workload,
            &s.spec,
            TUNE_THREADS,
            Objective::Time,
            TUNE_BUDGET,
            s.search_seed,
            TUNE_WORKERS,
        );
        out.parallel_s.push(start.elapsed().as_secs_f64());
        if let Some(span) = span {
            trace::end(span);
        }
        let span = is_traced.then(|| trace::begin("tune", 0, None));
        let start = Instant::now();
        let serial = tune(
            &workload,
            &s.spec,
            TUNE_THREADS,
            Objective::Time,
            TUNE_BUDGET,
            s.search_seed,
        );
        let serial_s = start.elapsed().as_secs_f64();
        out.serial_s.push(serial_s);
        if let Some(span) = span {
            trace::end(span);
        }
        checks.check(same_tuning(&parallel, &serial), || {
            "tune_parallel differs from tune".to_string()
        });
        let first = first_tuning.get_or_insert(serial);
        checks.check(same_tuning(first, &parallel), || {
            "tuning differs between rounds".to_string()
        });

        if is_traced {
            // Profile runs re-made one by one: the share of the serial
            // tune's time they account for, and the simulator's part.
            let instance = workload.instance(&s.spec);
            let base = RunSettings::for_mode(&workload, Mode::ParStats, TUNE_THREADS);
            let mut configs: Vec<&Vec<i64>> =
                first.outcome.history.trials().map(|(c, _, _)| c).collect();
            configs.sort();
            configs.dedup();
            let mut profiled_s = 0.0;
            for cfg in configs {
                let d = decode(&workload, cfg);
                let settings = RunSettings {
                    threads: d.alloc.clamp(1, TUNE_THREADS),
                    t_orig: d.t_orig,
                    spec_config: d.spec_config,
                    ..base.clone()
                };
                let start = Instant::now();
                std::hint::black_box(measure_instance(&workload, &instance, &s.spec, &settings));
                let secs = start.elapsed().as_secs_f64();
                profiled_s += secs;
                out.measure_ms.push(secs * 1e3);
            }
            out.overhead_frac.push(1.0 - profiled_s / serial_s);
            let result = stats_core::run_protocol_with_options(
                &instance.transition,
                &instance.inputs,
                &instance.initial,
                &stats_core::RunOptions::default()
                    .config(base.spec_config.clone())
                    .seed(base.run_seed),
            );
            let graph = expand_trace(&result.trace, &workload.original_tlp(), base.t_orig);
            let start = Instant::now();
            std::hint::black_box(stats_sim::simulate(&graph, &base.platform, base.threads));
            out.simulate_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    })?;

    let tuned = first_tuning.expect("at least one tuning round");
    let speedup = s.sequential_s / tuned.best_measurement.time_s;
    checks.check(speedup.is_finite() && speedup > 0.0, || {
        format!("tuned speedup {speedup}")
    });

    let p = &plain_samples;
    // Trials over the whole window's tuning time, not a median of rounds:
    // on a shared host single tunes run at two speeds, and a median flips
    // between them as their mix changes from run to run.
    let trials_per_s = trial_rate(&p.parallel_s);
    let serial_trials_per_s = trial_rate(&p.serial_s);
    let (tail, tail_p) = stats::tail(&p.compile_ms);
    report.note("compile_ms", stats::median(&p.compile_ms), "ms");
    report.note(format!("compile_ms.p{tail_p}"), tail, "ms");
    report.note("compiles", p.compile_ms.len() as f64, "samples");
    report.note("trials_per_s", trials_per_s, "trials/s");
    report.note("serial_trials_per_s", serial_trials_per_s, "trials/s");
    report.note("tuned_speedup_sim", speedup, "x");
    report.note("bytecode.call_ns", stats::median(&p.call_ns), "ns");
    report.note(
        "bytecode.reused_call_ns",
        stats::median(&p.reused_call_ns),
        "ns",
    );

    report.e2e.insert("setup_s", clock.setup_s());
    report.e2e.insert("throughput_per_s", trials_per_s);
    report
        .e2e
        .insert("ref_throughput_per_s", serial_trials_per_s);
    report.e2e.insert("p50_ms", stats::median(&p.compile_ms));
    report
        .e2e
        .insert("p90_ms", stats::percentile(&p.compile_ms, 90.0));

    if args.trace {
        let t = &traced_samples;
        report.layer(
            "trace.overhead_frac",
            common::overhead_frac(&plain, &traced),
        );
        report.layer("request.p99_ms", tail);
        report.layer("compiler.frontend_us", stats::median(&t.stage_us[0]));
        report.layer("compiler.midend_us", stats::median(&t.stage_us[1]));
        report.layer("compiler.instantiate_us", stats::median(&t.stage_us[2]));
        report.layer("bytecode.lower_us", stats::median(&t.lower_us));
        report.layer("bytecode.call_ns", stats::median(&t.call_ns));
        report.layer("bytecode.reused_call_ns", stats::median(&t.reused_call_ns));
        report.layer("profiler.measure_ms", stats::median(&t.measure_ms));
        report.layer("sim.simulate_ms", stats::median(&t.simulate_ms));
        report.layer("autotune.overhead_frac", stats::median(&t.overhead_frac));
        report.layer("autotune.tuned_speedup_sim", speedup);
        common::report_leaves_and_spans(&mut report);
    }
    report.capacity = capacity;
    report.checks = checks;
    Ok(report)
}
