//! Criterion bench of the discrete-event core's two hot structures:
//! `EventQueue` schedule/pop at the steady heap depth of the contended
//! cluster run (about 16 pending events), and `SharedRateResource`
//! advance/admit cycles on one link held at 1–16 concurrent tenants.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use recshard_des::{EventQueue, SharedRateResource};

/// Pending events held in the queue while it is timed.
const QUEUE_DEPTH: u64 = 16;
/// Operations per timed iteration.
const OPS: u64 = 4_096;

/// A fixed xorshift stream of delays, so every run times the same schedule.
fn delays(n: usize, max_ns: u64) -> Vec<u64> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % max_ns + 1
        })
        .collect()
}

fn event_queue(c: &mut Criterion) {
    let delays = delays(OPS as usize, 50_000);
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(30);
    group.throughput(Throughput::Elements(OPS));
    // One pop plus one schedule per element, the heap held at its depth:
    // the hold model of a simulation in steady state.
    group.bench_function(BenchmarkId::new("pop_schedule", QUEUE_DEPTH), |b| {
        b.iter(|| {
            let mut queue = EventQueue::new();
            for (i, &d) in (0..QUEUE_DEPTH).zip(&delays) {
                queue.schedule_after_ns(d, i);
            }
            for &d in &delays {
                if let Some(ev) = queue.pop() {
                    queue.schedule_after_ns(d, ev.event);
                }
            }
            black_box(queue.now())
        });
    });
    group.finish();
}

fn shared_rate(c: &mut Criterion) {
    let works = delays(OPS as usize, 20_000);
    let mut group = c.benchmark_group("shared_rate");
    group.sample_size(30);
    group.throughput(Throughput::Elements(OPS));
    // Each element advances the link to its next completion and admits one
    // replacement transfer per completion, so the tenant count stays put.
    for tenants in [1usize, 2, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::new("advance_admit", tenants),
            &tenants,
            |b, &tenants| {
                b.iter(|| {
                    let mut link: SharedRateResource<usize> = SharedRateResource::new();
                    let mut done = Vec::new();
                    for (i, &w) in works.iter().take(tenants).enumerate() {
                        link.admit(0, w, i);
                    }
                    let mut clock = 0;
                    let mut next = tenants;
                    for _ in 0..OPS {
                        let Some(delay) = link.next_completion_delay() else {
                            break;
                        };
                        clock += delay;
                        link.advance_into(clock, &mut done);
                        for _ in done.drain(..) {
                            link.admit(clock, works[next % works.len()], next);
                            next += 1;
                        }
                    }
                    black_box(link.served_units())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, event_queue, shared_rate);
criterion_main!(benches);
