//! The extension scenarios as benchmark targets: NAK conversion,
//! bidirectional duplex, window flow control, the §6 front man.

use criterion::{criterion_group, criterion_main, Criterion};
use protoquot_core::solve;
use protoquot_protocols::service::windowed;
use protoquot_protocols::{
    ab_to_nak_configuration, duplex_configuration, duplex_service, exactly_once,
    flow_control_configuration, frontman_configuration, two_client_service,
};

fn bench_scenarios(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenarios");
    g.sample_size(10);

    let nak = ab_to_nak_configuration();
    g.bench_function("nak-conversion", |b| {
        b.iter(|| solve(&nak.b, &exactly_once(), &nak.int).unwrap())
    });

    let front = frontman_configuration();
    let front_srv = two_client_service();
    g.bench_function("frontman", |b| {
        b.iter(|| solve(&front.b, &front_srv, &front.int).unwrap())
    });

    let flow = flow_control_configuration(2, 2);
    let flow_srv = windowed(2);
    g.bench_function("flow-control-w2", |b| {
        b.iter(|| solve(&flow.b, &flow_srv, &flow.int).unwrap())
    });

    let dup = duplex_configuration();
    let dup_srv = duplex_service();
    g.bench_function("duplex-bidirectional", |b| {
        b.iter(|| solve(&dup.b, &dup_srv, &dup.int).unwrap())
    });

    g.finish();
}

criterion_group!(benches, bench_scenarios);
criterion_main!(benches);
