//! Acceptance tests for rank-failure tolerance: injected rank death, rank
//! hangs, and dropped halo faces must degrade a distributed run instead of
//! killing it — and because the RT workload is analytic in global
//! coordinates, every recovery path must leave the assembled field
//! *bit-identical* to the fault-free run.

use std::time::{Duration, Instant};

use dfg_cluster::{
    run_distributed, run_distributed_traced, Cluster, DistOptions, DistResult, RankOutcome,
};
use dfg_core::{RecoveryPolicy, Strategy, Workload};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, ExecMode};

fn cluster(ranks: usize) -> Cluster {
    Cluster {
        nodes: ranks,
        devices_per_node: 1,
        profile: DeviceProfile::intel_x5660(),
    }
}

fn base_opts(mode: ExecMode) -> DistOptions {
    DistOptions {
        workload: Workload::QCriterion,
        strategy: Strategy::Fusion,
        mode,
        recovery: RecoveryPolicy::resilient(),
        exchange_deadline: Duration::from_millis(300),
        ..Default::default()
    }
}

fn run(global: &RectilinearMesh, ranks: usize, opts: &DistOptions) -> DistResult {
    run_distributed(
        global,
        [2, 2, 2],
        &RtWorkload::paper_default(),
        &cluster(ranks),
        opts,
    )
    .unwrap()
}

fn assert_bit_identical(clean: &DistResult, faulty: &DistResult) {
    let c = clean.field.as_ref().unwrap();
    let f = faulty.field.as_ref().unwrap();
    assert_eq!(c.len(), f.len());
    for i in 0..c.len() {
        assert_eq!(c[i].to_bits(), f[i].to_bits(), "cell {i} differs");
    }
}

/// The headline scenario from the issue: kill rank 1 of 4. The run
/// completes, names the lost rank and its redistributed blocks, and the
/// whole field — not just the surviving interior — is bit-identical to the
/// fault-free run, because the analytic ghost fill reproduces the dead
/// rank's faces exactly.
#[test]
fn rank_die_completes_degraded_and_bit_exact() {
    let global = RectilinearMesh::unit_cube([12, 10, 8]);
    let clean = run(&global, 4, &base_opts(ExecMode::Real));
    assert!(!clean.degraded);
    assert_eq!(clean.exchange_timeouts, 0);
    let faulty = run(
        &global,
        4,
        &DistOptions {
            fault_spec: Some("rank_die@1".into()),
            ..base_opts(ExecMode::Real)
        },
    );
    assert_eq!(faulty.lost_ranks, vec![1]);
    assert!(faulty.degraded);
    // Rank 1 of 4 owns blocks 1 and 5 of the 2x2x2 decomposition.
    let blocks: Vec<usize> = faulty
        .redistributed_blocks
        .iter()
        .map(|&(b, _)| b)
        .collect();
    assert_eq!(blocks, vec![1, 5]);
    for &(_, adopter) in &faulty.redistributed_blocks {
        assert_ne!(adopter, 1, "a lost rank cannot adopt");
    }
    // The attempt log records the death and the adoptions.
    assert!(matches!(faulty.rank_log[1].outcome, RankOutcome::Died(_)));
    assert_eq!(
        faulty
            .rank_log
            .iter()
            .map(|a| a.adopted_blocks)
            .sum::<usize>(),
        2
    );
    // Survivors filled the dead rank's faces analytically.
    assert!(faulty.ghost_filled_faces > 0);
    assert_bit_identical(&clean, &faulty);
}

/// Silent halo corruption: a seeded `halo_garble` flips one bit in a face
/// after it was sealed under its checksum — exactly what in-flight
/// corruption looks like. The receiver's verification drops the garbled
/// face instead of stenciling over it, the analytic fill re-samples the
/// identical plane, and the assembled 4-rank field stays bit-identical to
/// the fault-free run.
#[test]
fn halo_garble_is_detected_healed_and_bit_exact() {
    let global = RectilinearMesh::unit_cube([12, 10, 8]);
    let clean = run(&global, 4, &base_opts(ExecMode::Real));
    assert_eq!(clean.garbled_faces, 0);
    for seed in [7u64, 1234] {
        let faulty = run(
            &global,
            4,
            &DistOptions {
                fault_spec: Some(format!("halo_garble:0.2, seed={seed}")),
                ..base_opts(ExecMode::Real)
            },
        );
        assert!(
            faulty.garbled_faces > 0,
            "seed {seed}: the fault plan must have fired"
        );
        assert!(
            faulty.ghost_filled_faces >= faulty.garbled_faces as usize,
            "every garbled face is healed by the analytic fill"
        );
        assert!(faulty.degraded, "healed corruption reports degraded");
        assert!(faulty.lost_ranks.is_empty(), "no rank is written off");
        assert_bit_identical(&clean, &faulty);
    }
    // Without a fault plan the checksums all verify: nothing is dropped
    // even though every face is checked.
    let quiet = run(&global, 4, &base_opts(ExecMode::Real));
    assert_eq!(quiet.garbled_faces, 0);
    assert_eq!(quiet.ghost_filled_faces, 0);
    assert_bit_identical(&clean, &quiet);
}

/// A hung rank goes silent mid-run. Survivors wait out one exchange
/// deadline, fill the missing ghosts analytically, and the driver writes
/// the rank off and redistributes its blocks — within a bounded
/// wall-clock budget, in both execution modes, with *identical* virtual
/// clocks (deadlines are wall time; the model never sees them).
#[test]
fn rank_hang_completes_within_budget_in_both_modes() {
    let global = RectilinearMesh::unit_cube([10, 8, 8]);
    let deadline = Duration::from_millis(300);
    let opts = |mode| DistOptions {
        fault_spec: Some("rank_hang@2".into()),
        ..base_opts(mode)
    };
    let start = Instant::now();
    let real = run(&global, 4, &opts(ExecMode::Real));
    let real_elapsed = start.elapsed();
    let start = Instant::now();
    let model = run(&global, 4, &opts(ExecMode::Model));
    let model_elapsed = start.elapsed();
    // Bounded: survivors sit out one exchange deadline of silence from the
    // hung rank; the driver adds no wait of its own (it joins the live
    // ranks and releases the hung one). Generous headroom for the work.
    assert!(
        real_elapsed < deadline * 20,
        "real-mode hang run took {real_elapsed:?}"
    );
    assert!(
        model_elapsed < deadline * 20,
        "model-mode hang run took {model_elapsed:?}"
    );
    for r in [&real, &model] {
        assert_eq!(r.lost_ranks, vec![2]);
        assert!(r.degraded);
        assert!(matches!(r.rank_log[2].outcome, RankOutcome::Lost(_)));
        assert!(!r.redistributed_blocks.is_empty());
    }
    // The modeled clocks must be bitwise equal across modes: wall-clock
    // waits (deadlines, parking) never leak into virtual time.
    assert_eq!(
        real.rank_device_seconds.len(),
        model.rank_device_seconds.len()
    );
    for (rank, (a, b)) in real
        .rank_device_seconds
        .iter()
        .zip(&model.rank_device_seconds)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "rank {rank} clock differs");
    }
    assert_eq!(
        real.makespan_seconds.to_bits(),
        model.makespan_seconds.to_bits()
    );
    // And the real-mode result is still exact.
    let clean = run(&global, 4, &base_opts(ExecMode::Real));
    assert_bit_identical(&clean, &real);
}

/// Dropped halo faces are retransmitted; whatever still fails to arrive is
/// filled analytically. Either way the run completes bit-exact.
#[test]
fn exchange_drops_are_retried_and_stay_bit_exact() {
    let global = RectilinearMesh::unit_cube([10, 8, 8]);
    let clean = run(&global, 4, &base_opts(ExecMode::Real));
    let faulty = run(
        &global,
        4,
        &DistOptions {
            fault_spec: Some("exchange_drop:0.4".into()),
            ..base_opts(ExecMode::Real)
        },
    );
    assert!(faulty.exchange_drops > 0, "the fault plan must have fired");
    assert!(faulty.lost_ranks.is_empty(), "drops do not lose ranks");
    assert_bit_identical(&clean, &faulty);
}

/// Killing several ranks at once still completes on the survivors.
#[test]
fn multiple_dead_ranks_redistribute_to_all_survivors() {
    let global = RectilinearMesh::unit_cube([10, 8, 8]);
    let clean = run(&global, 4, &base_opts(ExecMode::Real));
    let faulty = run(
        &global,
        4,
        &DistOptions {
            fault_spec: Some("rank_die@1x2".into()),
            ..base_opts(ExecMode::Real)
        },
    );
    assert_eq!(faulty.lost_ranks, vec![1, 2]);
    // Ranks 1 and 2 own blocks {1,5} and {2,6}: all four must be adopted
    // by the two survivors.
    let blocks: Vec<usize> = faulty
        .redistributed_blocks
        .iter()
        .map(|&(b, _)| b)
        .collect();
    assert_eq!(blocks, vec![1, 2, 5, 6]);
    assert!(faulty
        .redistributed_blocks
        .iter()
        .all(|&(_, a)| a == 0 || a == 3));
    assert_bit_identical(&clean, &faulty);
}

/// The traced variant records the recovery pass: `recover.rank` spans ride
/// on a coordinator lane one past the last rank, and survivors record the
/// `exchange.fill` of the dead rank's faces.
#[test]
fn traced_run_records_recovery_spans() {
    let global = RectilinearMesh::unit_cube([10, 8, 8]);
    let result = run_distributed_traced(
        &global,
        [2, 2, 2],
        &RtWorkload::paper_default(),
        &cluster(4),
        &DistOptions {
            fault_spec: Some("rank_die@1".into()),
            ..base_opts(ExecMode::Real)
        },
    )
    .unwrap();
    let trace = result.trace.as_ref().unwrap();
    let recover: Vec<_> = trace
        .spans()
        .iter()
        .filter(|s| s.name == "recover.rank")
        .collect();
    assert!(!recover.is_empty(), "recovery pass must be traced");
    assert!(recover.iter().all(|s| s.track == 4), "coordinator lane");
    assert!(
        trace.spans().iter().any(|s| s.name == "exchange.fill"),
        "analytic ghost fill must be traced"
    );
}

/// Model mode at a larger rank count: rank fates and redistribution work
/// without any data or exchange, and the modeled kernel count is exactly
/// one fused kernel per block regardless of who ran it.
#[test]
fn model_mode_redistribution_preserves_kernel_counts() {
    let global = RectilinearMesh::unit_cube([64, 64, 64]);
    let result = run_distributed(
        &global,
        [4, 2, 2],
        &RtWorkload::paper_default(),
        &cluster(8),
        &DistOptions {
            fault_spec: Some("rank_die@3".into()),
            ..base_opts(ExecMode::Model)
        },
    )
    .unwrap();
    assert_eq!(result.lost_ranks, vec![3]);
    assert_eq!(result.total_kernel_execs, 16);
}

/// Model == Real for the recovery counters: REPORT.md's rank-loss grid
/// (24×24×16 as 2×2×2 blocks on 8 ranks) with 1, 2 and 4 ranks killed, and
/// under dropped and garbled halo faces, alone and beside a dead or hung
/// rank. A Model run moves no face data, yet reports the dropped sends,
/// garbled faces and ghost faces a Real run fills, the same lost ranks,
/// the same redistribution and the same makespan bits.
#[test]
fn rank_loss_counters_agree_across_modes() {
    let global = RectilinearMesh::unit_cube([24, 24, 16]);
    for (kills, faces) in [(1, 9), (2, 18), (4, 24)] {
        let opts = |mode| DistOptions {
            fault_spec: Some(format!("rank_die@1x{kills}")),
            ..base_opts(mode)
        };
        let real = run(&global, 8, &opts(ExecMode::Real));
        let model = run(&global, 8, &opts(ExecMode::Model));
        assert_eq!(real.ghost_filled_faces, faces, "{kills} killed");
        assert_eq!(model.ghost_filled_faces, faces, "{kills} killed");
        assert_eq!(model.lost_ranks, real.lost_ranks);
        assert_eq!(model.lost_ranks.len(), kills);
        assert_eq!(model.redistributed_blocks, real.redistributed_blocks);
        assert_eq!(model.degraded, real.degraded);
        assert_eq!(
            model.makespan_seconds.to_bits(),
            real.makespan_seconds.to_bits(),
            "{kills} killed"
        );
    }
    for spec in [
        "exchange_drop:0.5",
        "halo_garble:0.3",
        "rank_die@1,exchange_drop:0.5,halo_garble:0.3",
        "rank_hang@2,exchange_drop:0.5,halo_garble:0.3",
    ] {
        let opts = |mode| DistOptions {
            fault_spec: Some(spec.into()),
            ..base_opts(mode)
        };
        let real = run(&global, 8, &opts(ExecMode::Real));
        let model = run(&global, 8, &opts(ExecMode::Model));
        assert!(
            real.exchange_drops + real.garbled_faces > 0,
            "{spec}: no fault fired"
        );
        assert_eq!(model.exchange_drops, real.exchange_drops, "{spec}");
        assert_eq!(model.garbled_faces, real.garbled_faces, "{spec}");
        assert_eq!(model.ghost_filled_faces, real.ghost_filled_faces, "{spec}");
        assert_eq!(model.lost_ranks, real.lost_ranks, "{spec}");
        assert_eq!(model.degraded, real.degraded, "{spec}");
        assert_eq!(
            model.makespan_seconds.to_bits(),
            real.makespan_seconds.to_bits(),
            "{spec}"
        );
    }
}
