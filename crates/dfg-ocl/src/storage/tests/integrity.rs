use super::tests::{bits, both_modes, ctx, src, Double};
use super::*;
use crate::fault::{FaultKind, FaultPlan};
use crate::integrity::{IntegrityKind, VerifyPolicy};
use crate::{DeviceProfile, SharedArray};

#[test]
fn verify_buffer_learns_on_write_and_detects_a_flipped_bit() {
    let mut c = ctx();
    c.set_verify(VerifyPolicy::Residents);
    let a = c.create_buffer(16).unwrap();
    c.enqueue_write(a, &[1.5; 16]).unwrap();
    c.verify_buffer(a).unwrap();
    c.debug_flip_bit(a, 7, 3);
    match c.verify_buffer(a) {
        Err(OclError::IntegrityViolation {
            kind: IntegrityKind::Checksum,
            buffer,
            ..
        }) => assert_eq!(buffer, a.index()),
        other => panic!("expected checksum violation, got {other:?}"),
    }
    let stats = c.integrity_stats();
    assert_eq!(stats.checks, 2);
    assert_eq!(stats.violations, 1);
    // Healing is a re-upload: the sum is relearned and the buffer
    // verifies clean again.
    c.enqueue_write(a, &[1.5; 16]).unwrap();
    c.verify_buffer(a).unwrap();
    assert_eq!(c.enqueue_read(a).unwrap(), vec![1.5; 16]);
}

#[test]
fn broken_guard_zone_is_a_guard_violation() {
    let mut c = ctx();
    c.set_verify(VerifyPolicy::Residents);
    let a = c.create_buffer(8).unwrap();
    c.enqueue_write(a, &[2.0; 8]).unwrap();
    c.debug_poke_guard(a);
    match c.verify_buffer(a) {
        Err(OclError::IntegrityViolation {
            kind: IntegrityKind::Guard,
            ..
        }) => {}
        other => panic!("expected guard violation, got {other:?}"),
    }
    // The payload itself is untouched by the guard overwrite.
    assert_eq!(c.peek(a).unwrap(), vec![2.0; 8]);
}

#[test]
fn verification_off_or_model_mode_is_vacuous() {
    let mut c = ctx();
    let a = c.create_buffer(4).unwrap();
    c.enqueue_write(a, &[1.0; 4]).unwrap();
    c.debug_flip_bit(a, 0, 0);
    c.verify_buffer(a).unwrap(); // Off: no sum learned, nothing checked
    assert_eq!(c.integrity_stats().checks, 0);

    let mut m = Context::new(DeviceProfile::nvidia_m2050(), ExecMode::Model);
    m.set_verify(VerifyPolicy::Full);
    let b = m.create_buffer(4).unwrap();
    m.verify_buffer(b).unwrap();
    assert_eq!(m.integrity_stats().checks, 0);
}

#[test]
fn stale_slot_fault_is_caught_at_pool_handout_and_quarantined() {
    let mut c = ctx();
    c.set_pooling(true);
    c.set_verify(VerifyPolicy::Residents);
    let plan = FaultPlan::with_seed(11);
    plan.fail_nth_from_now(FaultKind::StaleSlot, 1, 1);
    c.set_fault_plan(plan);
    let a = c.create_buffer(16).unwrap();
    c.enqueue_write(a, &[9.0; 16]).unwrap();
    c.release(a).unwrap();
    match c.create_buffer(16) {
        Err(
            e @ OclError::IntegrityViolation {
                kind: IntegrityKind::StaleSlot,
                ..
            },
        ) => assert!(e.is_transient() && e.is_integrity()),
        other => panic!("expected stale-slot violation, got {other:?}"),
    }
    assert_eq!(c.integrity_stats().violations, 1);
    // The tainted slot was quarantined: the retried allocation gets a
    // fresh slot that reads as zeros.
    let again = c.create_buffer(16).unwrap();
    assert_eq!(c.enqueue_read(again).unwrap(), vec![0.0; 16]);
}

#[test]
fn stale_slot_without_verification_leaks_previous_contents() {
    // The injection is real: with verification off, the stale hand-out
    // goes undetected and the old owner's data is visible — exactly the
    // silent corruption the checksum layer exists to catch.
    let mut c = ctx();
    c.set_pooling(true);
    let plan = FaultPlan::with_seed(11);
    plan.fail_nth_from_now(FaultKind::StaleSlot, 1, 1);
    c.set_fault_plan(plan);
    let a = c.create_buffer(16).unwrap();
    c.enqueue_write(a, &[9.0; 16]).unwrap();
    c.release(a).unwrap();
    let b = c.create_buffer(16).unwrap();
    assert_eq!(c.enqueue_read(b).unwrap(), vec![9.0; 16]);
}

#[test]
fn mem_flip_fault_is_detected_at_launch_under_full_and_heals_on_rewrite() {
    let mut c = ctx();
    c.set_verify(VerifyPolicy::Full);
    let plan = FaultPlan::with_seed(3);
    plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
    c.set_fault_plan(plan);
    let input: Vec<f32> = (0..32).map(|i| i as f32).collect();
    let a = c.create_buffer(32).unwrap();
    let b = c.create_buffer(32).unwrap();
    c.enqueue_write(a, &input).unwrap();
    match c.launch(&Double, &[a], b, 32) {
        Err(OclError::IntegrityViolation {
            kind: IntegrityKind::Checksum,
            buffer,
            ..
        }) => assert_eq!(buffer, a.index()),
        other => panic!("expected checksum violation, got {other:?}"),
    }
    // Heal: re-upload the tainted input; the retried launch succeeds
    // and the result is bit-identical to a fault-free run.
    c.enqueue_write(a, &input).unwrap();
    c.launch(&Double, &[a], b, 32).unwrap();
    let out = c.enqueue_read(b).unwrap();
    let expect: Vec<f32> = input.iter().map(|v| v * 2.0).collect();
    assert_eq!(out, expect);
}

#[test]
fn integrity_of_an_adopted_input_mem_flip_is_detected_and_never_reaches_the_host() {
    // The same fault, the same detection and the same heal as for a
    // copied input — and the array the host still holds is untouched,
    // because the flip first gave the slot storage of its own.
    let mut c = ctx();
    c.set_verify(VerifyPolicy::Full);
    // The flipped bit follows the plan's seed: `DFG_FAULT_SEED` in CI's
    // integrity matrix, the fixed default otherwise.
    c.set_fault_plan(FaultPlan::parse("mem_flip@1").unwrap());
    let host: SharedArray = (0..32).map(|i| i as f32).collect::<Vec<_>>().into();
    let before = bits(&host);
    let a = c.create_buffer(32).unwrap();
    let b = c.create_buffer(32).unwrap();
    c.enqueue_write_q(QueueId::DEFAULT, a, (&host).into(), &[])
        .unwrap();
    assert_eq!(c.report().host_bytes_copied, 0, "adopted, not copied");
    match c.launch(&Double, &[a], b, 32) {
        Err(OclError::IntegrityViolation {
            kind: IntegrityKind::Checksum,
            buffer,
            ..
        }) => assert_eq!(buffer, a.index()),
        other => panic!("expected checksum violation, got {other:?}"),
    }
    let after = bits(&host);
    assert_eq!(
        after, before,
        "the host's array is not the device's to flip"
    );
    let device = bits(&c.peek(a).unwrap());
    assert_ne!(device, before, "the flip landed in the slot's own storage");
    // Heal: the re-upload adopts the clean array again.
    c.enqueue_write_q(QueueId::DEFAULT, a, (&host).into(), &[])
        .unwrap();
    c.launch(&Double, &[a], b, 32).unwrap();
    let expect: Vec<f32> = host.iter().map(|v| v * 2.0).collect();
    assert_eq!(c.enqueue_read(b).unwrap(), expect);
}

#[test]
fn integrity_of_an_adopted_buffer_survives_every_device_side_write() {
    // Debug flips, guard pokes, pool poisoning and a launch into the
    // buffer: each is observable on the device side exactly as on a
    // copied buffer, none of them through the host's handle.
    let host = SharedArray::from(vec![1.5f32; 16]);
    let adopt = |c: &mut Context| {
        let a = c.create_buffer(16).unwrap();
        c.enqueue_write_q(QueueId::DEFAULT, a, (&host).into(), &[])
            .unwrap();
        a
    };
    let mut c = ctx();
    c.set_verify(VerifyPolicy::Residents);
    c.set_pooling(true);
    c.debug_set_poison(true);

    let a = adopt(&mut c);
    c.verify_buffer(a).unwrap();
    c.debug_flip_bit(a, 7, 3);
    assert!(matches!(
        c.verify_buffer(a),
        Err(OclError::IntegrityViolation {
            kind: IntegrityKind::Checksum,
            ..
        })
    ));
    c.release(a).unwrap();

    let a = adopt(&mut c);
    c.debug_poke_guard(a);
    assert!(matches!(
        c.verify_buffer(a),
        Err(OclError::IntegrityViolation {
            kind: IntegrityKind::Guard,
            ..
        })
    ));
    assert_eq!(c.peek(a).unwrap(), vec![1.5; 16]);
    // Releasing an adopted slot parks it without storage: nothing of
    // the host's to poison, nothing stale to hand out.
    let a2 = adopt(&mut c);
    c.release(a2).unwrap();
    let fresh = c.create_buffer(16).unwrap();
    assert_eq!(c.enqueue_read(fresh).unwrap(), vec![0.0; 16]);

    // A launch whose output is an adopted buffer writes its own storage.
    let input = adopt(&mut c);
    let output = adopt(&mut c);
    c.launch(&Double, &[input], output, 16).unwrap();
    assert_eq!(c.enqueue_read(output).unwrap(), vec![3.0; 16]);

    assert_eq!(host[..], [1.5; 16]);
    let mut host = host;
    drop(c);
    assert!(host.get_mut().is_some(), "every slot let go of its handle");
}

/// An adopted array's checksum is due, not learned: nothing hashes its
/// lanes while they are the host's — neither the upload nor a check,
/// which is still counted — and the first private copy of them learns
/// it. So a flipped bit, an injected `mem_flip` and a guard poke are each
/// caught under `residents` and `full`, a re-upload heals, and the
/// host's array keeps its bits throughout.
#[test]
fn an_adopted_slot_is_hashed_when_its_lanes_become_the_devices_own() {
    let host: SharedArray = (0..16).map(|i| i as f32 - 2.5).collect::<Vec<_>>().into();
    let before = bits(&host);
    for policy in [VerifyPolicy::Residents, VerifyPolicy::Full] {
        for corruption in ["flip", "mem_flip", "guard"] {
            let what = format!("{policy:?} {corruption}");
            let mut c = ctx();
            c.set_verify(policy);
            c.set_fault_plan(FaultPlan::with_seed(5));
            let (a, b) = (c.create_buffer(16).unwrap(), c.create_buffer(16).unwrap());
            c.enqueue_write_q(QueueId::DEFAULT, a, (&host).into(), &[])
                .unwrap();
            c.verify_buffer(a).unwrap();
            assert_eq!(c.report().host_bytes_hashed, 0, "{what}: the host's lanes");
            let caught = match corruption {
                "flip" => {
                    c.debug_flip_bit(a, 3, 30);
                    c.verify_buffer(a)
                }
                "guard" => {
                    c.debug_poke_guard(a);
                    c.verify_buffer(a)
                }
                _ => {
                    let plan = c.fault_plan().unwrap().clone();
                    plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
                    c.launch(&Double, &[a], b, 16)
                        .and_then(|()| c.verify_buffer(a))
                }
            };
            assert!(
                matches!(caught, Err(OclError::IntegrityViolation { .. })),
                "{what}: {caught:?}"
            );
            // The private copy learned the sum (64 B); a checksum check
            // hashed the copy again, a guard check stopped at the guard.
            let hashed = if corruption == "guard" { 64 } else { 128 };
            assert_eq!(c.report().host_bytes_hashed, hashed, "{what}");
            assert_eq!(c.integrity_stats().violations, 1, "{what}");
            assert_eq!(bits(&host), before, "{what}: the host's array");
            // Heal: the re-upload adopts the clean array again.
            c.enqueue_write_q(QueueId::DEFAULT, a, (&host).into(), &[])
                .unwrap();
            c.verify_buffer(a).unwrap();
            c.launch(&Double, &[a], b, 16).unwrap();
            let doubled: Vec<f32> = host.iter().map(|v| v * 2.0).collect();
            assert_eq!(c.enqueue_read(b).unwrap(), doubled, "{what}");
            assert_eq!(bits(&c.peek(a).unwrap()), before, "{what}: healed");
            assert_eq!(bits(&host), before, "{what}: the host's array");
        }
    }
}

/// A prefix write into an adopted slot lands on the slot's own copy of
/// the array, which then verifies clean, and is still watched: the sum
/// covers the prefix and the array's tail.
#[test]
fn a_prefix_write_into_an_adopted_slot_verifies_clean() {
    let host = SharedArray::from(vec![1.5f32; 16]);
    for policy in [VerifyPolicy::Residents, VerifyPolicy::Full] {
        let mut c = ctx();
        c.set_verify(policy);
        let a = c.create_buffer(16).unwrap();
        c.enqueue_write_q(QueueId::DEFAULT, a, (&host).into(), &[])
            .unwrap();
        c.enqueue_write_q(QueueId::DEFAULT, a, src(true, &[9.0; 4]), &[])
            .unwrap();
        c.verify_buffer(a).unwrap();
        let mut want = vec![1.5; 16];
        want[..4].fill(9.0);
        assert_eq!(c.peek(a).unwrap(), want, "{policy:?}");
        assert_eq!(host[..], [1.5; 16], "{policy:?}: the host's array");
        c.debug_flip_bit(a, 10, 1);
        assert!(c.verify_buffer(a).is_err(), "{policy:?}: a later flip");
    }
}

#[test]
fn mem_flip_without_verification_silently_corrupts_results() {
    let run = |flip: bool| -> Vec<u32> {
        let mut c = ctx();
        if flip {
            let plan = FaultPlan::with_seed(3);
            plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
            c.set_fault_plan(plan);
        }
        let input: Vec<f32> = (0..32).map(|i| i as f32 + 0.5).collect();
        let a = c.create_buffer(32).unwrap();
        let b = c.create_buffer(32).unwrap();
        c.enqueue_write(a, &input).unwrap();
        c.launch(&Double, &[a], b, 32).unwrap();
        bits(&c.enqueue_read(b).unwrap())
    };
    assert_ne!(run(true), run(false), "undetected flip changes the bits");
}

#[test]
fn silent_faults_draw_in_model_mode_but_are_inert() {
    // Both silent kinds fire in both modes; with no storage to corrupt
    // (Model) or no verification to notice (Real), neither changes the
    // modeled state, and the draw counters advance in lockstep.
    let ((_, _, _, fault_draws), _) = both_modes(|c, bytes| {
        let plan = c.fault_plan().expect("harness installs one").clone();
        plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
        plan.fail_nth_from_now(FaultKind::StaleSlot, 1, 1);
        c.set_pooling(true);
        let a = c.create_buffer(8).unwrap();
        c.release(a).unwrap();
        let a = c.create_buffer(8).unwrap();
        let b = c.create_buffer(8).unwrap();
        c.enqueue_write_q(QueueId::DEFAULT, a, src(bytes, &[1.0; 8]), &[])
            .unwrap();
        c.launch(&Double, &[a], b, 8).unwrap();
        assert_eq!(plan.total_fired(), 2);
    });
    assert_eq!(fault_draws, [3, 1, 1, 1, 1], "counter parity");
}

#[test]
fn full_verification_leaves_results_events_and_clock_bit_identical() {
    let run = |policy: VerifyPolicy| {
        let mut c = ctx();
        c.set_verify(policy);
        let input: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
        let a = c.create_buffer(64).unwrap();
        let b = c.create_buffer(64).unwrap();
        c.enqueue_write(a, &input).unwrap();
        c.launch(&Double, &[a], b, 64).unwrap();
        let out = bits(&c.enqueue_read(b).unwrap());
        (out, c.report().events.len(), c.clock_seconds().to_bits())
    };
    assert_eq!(run(VerifyPolicy::Off), run(VerifyPolicy::Full));
}

#[test]
fn poisoned_pool_reuse_still_reads_zeros_and_computes_identically() {
    let run = |poison: bool| -> Vec<u32> {
        let mut c = ctx();
        c.set_pooling(true);
        c.debug_set_poison(poison);
        let a = c.create_buffer(16).unwrap();
        c.enqueue_write(a, &[4.0; 16]).unwrap();
        c.release(a).unwrap();
        // Reused slot: unwritten lanes must read as zeros whether the
        // release poisoned the storage or not.
        let b = c.create_buffer(16).unwrap();
        assert_eq!(c.enqueue_read(b).unwrap(), vec![0.0; 16]);
        let out = c.create_buffer(16).unwrap();
        c.launch(&Double, &[b], out, 16).unwrap();
        bits(&c.enqueue_read(out).unwrap())
    };
    assert_eq!(run(false), run(true));
}
