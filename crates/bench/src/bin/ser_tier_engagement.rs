//! §7.2: serialized-tier engagement under tightened memory, on the
//! simulated clock.
//!
//! Runs the paper's high-`ser_factor` workloads (SVD++ and
//! LogisticRegression) with their memory squeezed, once with the serialized
//! in-memory tier off (`Blaze`) and once on (`Blaze (SER)`), and prints the
//! s-state engagement counters next to the simulated ACT. Two columns show
//! where the tier's charge lands: `ser I/O (s)` is the (de)serialization it
//! adds to task time (`accumulated.external_store_io`: one deserialization
//! per s-state hit, plus the m <-> s transitions), and `task time (s)` is
//! the accumulated task time (`accumulated.total()`, off-task migration
//! charges included). A tier that is charged but leaves the ACT unchanged
//! paid off the critical path. Every run
//! checks two floors: the tier-off runs keep their ser counters at exactly
//! zero, and the solver picks s-states (`ser transitions > 0`) on at least
//! one workload.

use blaze_bench::table::Table;
use blaze_common::ByteSize;
use blaze_workloads::{App, AppSpec, Session, SystemKind};

/// MiB summed over every executor. Summing bytes keeps an empty sum at
/// `0.000`: an empty `f64` sum is `-0.0`, which prints as `-0.000`.
fn total_mib<'a>(per_executor: impl Iterator<Item = &'a ByteSize>) -> String {
    format!("{:.3}", per_executor.copied().sum::<ByteSize>().as_mib_f64())
}

fn main() {
    println!("== §7.2: serialized-tier engagement under tightened memory ==\n");
    let mut t = Table::new([
        "app",
        "system",
        "memory",
        "ACT (s)",
        "task time (s)",
        "ser I/O (s)",
        "evict to disk",
        "evict discard",
        "spilled MiB",
        "discarded MiB",
        "ser hits",
        "ser transitions",
    ]);
    let mut engaged = 0;
    // The regime where packing a block (0.6x footprint) keeps a working set
    // memory-resident that would otherwise thrash to disk.
    for (app, squeeze) in [(App::Svdpp, 0.55), (App::LogisticRegression, 0.4)] {
        let mut spec = AppSpec::evaluation(app);
        spec.memory_capacity = spec.memory_capacity.scale(squeeze);
        let run = |system| Session::builder(spec).system(system).run().expect("run failed").metrics;
        let off = run(SystemKind::Blaze);
        let on = run(SystemKind::BlazeSerTier);
        assert_eq!(
            (off.ser_mem_hits, off.ser_transitions),
            (0, 0),
            "{}: ser counters must stay zero with the tier off",
            app.label()
        );
        if on.ser_transitions > 0 {
            engaged += 1;
        }
        for (system, m) in [(SystemKind::Blaze, off), (SystemKind::BlazeSerTier, on)] {
            t.row([
                app.label().to_string(),
                system.label().to_string(),
                format!("{squeeze}x"),
                format!("{:.6}", m.completion_time.as_secs_f64()),
                format!("{:.6}", m.accumulated.total().as_secs_f64()),
                format!("{:.6}", m.accumulated.external_store_io.as_secs_f64()),
                m.evictions_to_disk.to_string(),
                m.evictions_discard.to_string(),
                total_mib(m.spilled_bytes_per_executor.values()),
                total_mib(m.discarded_bytes_per_executor.values()),
                m.ser_mem_hits.to_string(),
                m.ser_transitions.to_string(),
            ]);
        }
    }
    assert!(
        engaged > 0,
        "no high-ser_factor workload produced s-state picks \
         (ser transitions == 0 everywhere with the tier on)"
    );
    println!("{}", t.render());
    println!(
        "ser tier engaged on {engaged}/2 workloads; the tier-off rows keep zero ser counters."
    );
}
