//! Behavioural tests of the experiment runner itself, on the smallest
//! benchmark (avrora) to stay fast.

use hemu_core::Experiment;
use hemu_heap::CollectorKind;
use hemu_types::ByteSize;
use hemu_workloads::WorkloadSpec;

fn avrora() -> WorkloadSpec {
    WorkloadSpec::by_name("avrora").unwrap()
}

#[test]
fn warmup_changes_the_measured_iteration() {
    // Without warm-up the measured iteration includes cold-start traffic:
    // page faults, cold caches, initial data-structure builds.
    let warm = Experiment::new(avrora()).run().unwrap();
    let cold = Experiment::new(avrora()).without_warmup().run().unwrap();
    assert!(
        cold.pcm_reads > warm.pcm_reads,
        "cold run ({}) should read more from memory than the steady-state run ({})",
        cold.pcm_reads,
        warm.pcm_reads
    );
}

#[test]
fn gc_stats_cover_only_the_measured_iteration() {
    let r = Experiment::new(avrora())
        .collector(CollectorKind::KgN)
        .run()
        .unwrap();
    let gc = r.gc.expect("managed run has GC stats");
    // avrora allocates ~12 MiB per iteration; the delta accounting must
    // not include the warm-up iteration's ~equal allocation volume.
    let mib = gc.allocated_bytes as f64 / (1 << 20) as f64;
    assert!(
        (8.0..20.0).contains(&mib),
        "measured-iteration allocation should be one iteration's worth, got {mib:.1} MiB"
    );
}

#[test]
fn monitor_interval_controls_sample_density() {
    let sparse = Experiment::new(avrora())
        .monitor_interval(0.05)
        .run()
        .unwrap();
    let dense = Experiment::new(avrora())
        .monitor_interval(0.002)
        .run()
        .unwrap();
    assert!(dense.samples.len() > sparse.samples.len());
}

#[test]
fn bigger_nursery_via_override_changes_gc_counts() {
    let small = Experiment::new(avrora())
        .collector(CollectorKind::KgN)
        .nursery(ByteSize::from_mib(1))
        .run()
        .unwrap();
    let big = Experiment::new(avrora())
        .collector(CollectorKind::KgN)
        .nursery(ByteSize::from_mib(8))
        .run()
        .unwrap();
    let (s, b) = (small.gc.unwrap().minor_gcs, big.gc.unwrap().minor_gcs);
    assert!(
        b < s,
        "8 MiB nursery ({b} minor GCs) must collect less often than 1 MiB ({s})"
    );
}

#[test]
fn instances_scale_total_allocation() {
    let one = Experiment::new(avrora()).run().unwrap();
    let two = Experiment::new(avrora()).instances(2).run().unwrap();
    let ratio = two.allocated.bytes() as f64 / one.allocated.bytes() as f64;
    assert!(
        (1.8..2.2).contains(&ratio),
        "2 instances should allocate ~2x, got {ratio:.2}x"
    );
}
