//! Bit-serial frame simulation throughput: full frames (setup + payload
//! streaming + reassembly) through the concentration stage under each
//! congestion policy.

use std::hint::black_box;

use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use switchsim::traffic::{generate, tick_frames};
use switchsim::{ConcentrationStage, CongestionPolicy, TraceModel};

fn bench_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_sim");
    for n in [64usize, 256] {
        let switch = RevsortSwitch::new(n, n / 2, RevsortLayout::TwoDee);
        let traffic = generate(TraceModel::Bernoulli { p: 0.6 }, n, 50, 2, 77);
        let frames = tick_frames(&traffic, n, 50);
        for (name, policy) in [
            ("drop", CongestionPolicy::Drop),
            ("buffer8", CongestionPolicy::InputBuffer { capacity: 8 }),
            ("ack3", CongestionPolicy::AckResend { max_retries: 3 }),
        ] {
            group.throughput(Throughput::Elements(50));
            group.bench_with_input(
                BenchmarkId::new(format!("n{n}"), name),
                &switch,
                |b, switch| {
                    b.iter(|| {
                        let mut stage = ConcentrationStage::new(switch, policy);
                        black_box(stage.run(frames.clone()))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_frames);
criterion_main!(benches);
