//! Criterion bench: cost of the fault-injection plumbing when it is idle.
//!
//! The supervised runtime threads a `FaultInjector` hook through every
//! executor. The contract (ISSUE: overhead guard) is that a run with *no*
//! injector — the production configuration — pays only an `Option` check
//! per node, and a run with an *empty* plan pays one failed `HashMap`
//! lookup per node. Both must be noise-level (<1%) next to real kernels.
//! Compare the `group` bars: `baseline` (no injector), `empty_plan`
//! (injector armed with zero faults), and `supervised` (full supervisor
//! wrapper, zero faults, retries never triggered).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ramiel::{compile, PipelineOptions};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{
    run_parallel_opts, run_sequential, run_sequential_opts, run_supervised, synth_inputs, Executor,
    FaultInjector, FaultPlan, RunOptions, SupervisorConfig,
};
use ramiel_tensor::ExecCtx;
use std::hint::black_box;

fn bench_sequential_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_overhead_sequential");
    group.sample_size(20);
    let compiled = compile(
        build(ModelKind::Squeezenet, &ModelConfig::full()),
        &PipelineOptions::default(),
    )
    .expect("pipeline");
    let inputs = synth_inputs(&compiled.graph, 42);
    let ctx = ExecCtx::sequential();
    group.bench_function(BenchmarkId::from_parameter("baseline"), |b| {
        b.iter(|| run_sequential(black_box(&compiled.graph), &inputs, &ctx).expect("seq"));
    });
    let empty = RunOptions::with_injector(FaultInjector::new(FaultPlan::none()));
    group.bench_function(BenchmarkId::from_parameter("empty_plan"), |b| {
        b.iter(|| {
            run_sequential_opts(black_box(&compiled.graph), &inputs, &ctx, &empty).expect("seq")
        });
    });
    group.finish();
}

fn bench_parallel_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_overhead_parallel");
    group.sample_size(20);
    let compiled = compile(
        build(ModelKind::Squeezenet, &ModelConfig::full()),
        &PipelineOptions::default(),
    )
    .expect("pipeline");
    let inputs = synth_inputs(&compiled.graph, 42);
    let ctx = ExecCtx::sequential();
    group.bench_function(BenchmarkId::from_parameter("baseline"), |b| {
        b.iter(|| {
            run_parallel_opts(
                black_box(&compiled.graph),
                &compiled.clustering,
                &inputs,
                &ctx,
                &RunOptions::default(),
            )
            .expect("par")
        });
    });
    let empty = RunOptions::with_injector(FaultInjector::new(FaultPlan::none()));
    group.bench_function(BenchmarkId::from_parameter("empty_plan"), |b| {
        b.iter(|| {
            run_parallel_opts(
                black_box(&compiled.graph),
                &compiled.clustering,
                &inputs,
                &ctx,
                &empty,
            )
            .expect("par")
        });
    });
    let cfg = SupervisorConfig::default();
    let hc = ramiel_cluster::hypercluster(&compiled.clustering, 1);
    let batch = [inputs.clone()];
    group.bench_function(BenchmarkId::from_parameter("supervised"), |b| {
        b.iter(|| {
            let (res, report) = run_supervised(
                Executor::Channel,
                black_box(&compiled.graph),
                &hc,
                &batch,
                &ctx,
                &RunOptions::default(),
                &cfg,
            );
            assert_eq!(report.attempts, 1);
            res.expect("supervised")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sequential_overhead, bench_parallel_overhead);
criterion_main!(benches);
