use super::tests::{bits, both_modes, ctx, dst, planes, shared_src, src, Double, Lane, N};
use super::*;
use crate::integrity::{IntegrityKind, VerifyPolicy};
use crate::{interleave, SharedArray};

fn doubled(lanes: &[f32]) -> Vec<f32> {
    lanes.iter().map(|v| v * 2.0).collect()
}

/// A buffer's last read, either as [`Context::read_and_release`] or as a
/// ranged read into a fresh `Vec` and a release: what the host gets.
fn last_read(
    c: &mut Context,
    consume: bool,
    bytes: bool,
    id: BufferId,
    planes: usize,
) -> Option<Vec<f32>> {
    if consume {
        return c.read_and_release(id, planes).unwrap();
    }
    let mut out = vec![0.0; c.slots.lanes(id).unwrap()];
    c.enqueue_read_range_q(QueueId::DEFAULT, id, 0, dst(bytes, &mut out), &[])
        .unwrap();
    c.release(id).unwrap();
    bytes.then(|| interleave(&out, planes))
}

/// The last read of a private, written scalar buffer on a context that
/// does not pool hands the storage over: the `Vec` holds exactly the
/// slot's lanes, nothing is copied, and the slot is gone. What is
/// modeled — events, clocks, high-water mark, fault draws — and `in_use`
/// are those of a read and a release, Real and Model alike.
#[test]
fn a_last_read_hands_over_the_storage_and_models_a_read_and_a_release() {
    let input: Vec<f32> = (0..37).map(|i| i as f32 - 3.5).collect();
    let script = |consume: bool| {
        let input = &input;
        move |c: &mut Context, bytes: bool| {
            let (a, b) = (c.create_buffer(37).unwrap(), c.create_buffer(37).unwrap());
            c.enqueue_write_q(QueueId::DEFAULT, a, src(bytes, input), &[])
                .unwrap();
            c.launch(&Double, &[a], b, 37).unwrap();
            let copied = c.host_bytes_copied();
            let data = last_read(c, consume, bytes, b, 1);
            assert_eq!(data, bytes.then(|| doubled(input)));
            assert!(matches!(c.release(b), Err(OclError::InvalidBuffer { .. })));
            let in_use = c.in_use_bytes();
            c.release(a).unwrap();
            (in_use, c.host_bytes_copied() - copied)
        }
    };
    let (consumed, [real, model]) = both_modes(script(true));
    let (read, [real_read, model_read]) = both_modes(script(false));
    assert_eq!(consumed, read);
    let four_bytes = 37 * 4;
    assert_eq!([real, model], [(four_bytes, 0); 2], "handed over");
    assert_eq!(
        [real_read, model_read],
        [(four_bytes, four_bytes), (four_bytes, 0)]
    );
}

/// What a last read must copy — a vector value, a view and an adopted
/// array — it copies: the host gets the same lanes and the same copied
/// bytes as from a read and a release, and the viewed operand and the
/// host's array keep their bits. A scalar on a pooled context is handed
/// over, not copied: its slot parks bare and serves the next
/// allocation, which reads as zeros and computes. Everything modeled,
/// `in_use` and the pool counters are the same four ways: Real and
/// Model, consuming or not.
#[test]
fn a_last_read_copies_what_the_context_may_not_give_away() {
    let host = SharedArray::from(planes()[N..2 * N].to_vec());
    let script = |consume: bool| {
        let host = &host;
        move |c: &mut Context, bytes: bool| {
            c.set_pooling(true);
            let scalar = &planes()[..N];
            let a = c.create_buffer(N).unwrap();
            c.enqueue_write_q(QueueId::DEFAULT, a, src(bytes, scalar), &[])
                .unwrap();
            let mut got = Vec::new();
            for _ in 0..2 {
                let s = c.create_buffer(N).unwrap();
                if bytes {
                    assert_eq!(c.peek(s).unwrap(), [0.0; N], "no stale lanes");
                }
                c.launch(&Double, &[a], s, N).unwrap();
                got.push(last_read(c, consume, bytes, s, 1));
            }
            let p = c.create_buffer(4 * N).unwrap();
            c.enqueue_write_q(QueueId::DEFAULT, p, src(bytes, &planes()), &[])
                .unwrap();
            let v = c.create_buffer(N).unwrap();
            let placement = c.launch_then_release(&Lane(2), &[p], v, N, &[]).unwrap();
            assert_eq!(placement == Placement::View, bytes);
            got.push(last_read(c, consume, bytes, v, 1));
            if bytes {
                assert_eq!(bits(&c.peek(p).unwrap()), bits(&planes()));
            }
            got.push(last_read(c, consume, bytes, p, 4));
            let x = c.create_buffer(N).unwrap();
            c.enqueue_write_q(QueueId::DEFAULT, x, shared_src(bytes, host), &[])
                .unwrap();
            got.push(last_read(c, consume, bytes, x, 1));
            c.release(a).unwrap();
            assert_eq!(c.in_use_bytes(), 0);
            if bytes {
                let want = [
                    doubled(scalar),
                    doubled(scalar),
                    planes()[2 * N..3 * N].to_vec(),
                    interleave(&planes(), 4),
                    host.to_vec(),
                ];
                assert_eq!(got, want.map(Some));
            }
            (c.pool_hits(), c.pooled_bytes(), c.host_bytes_copied())
        }
    };
    let (consumed, [real, model]) = both_modes(script(true));
    let (read, [real_read, model_read]) = both_modes(script(false));
    assert_eq!(consumed, read);
    let pooled = |(hits, parked, _): (u64, u64, u64)| (hits, parked);
    assert_eq!(
        pooled(real),
        pooled(real_read),
        "pooled as a read and a release"
    );
    let handed_over = 2 * N as u64 * 4;
    assert_eq!(real.2 + handed_over, real_read.2, "the scalars handed over");
    assert_eq!(model, model_read);
    assert_eq!(pooled(real), pooled(model), "pool counters");
    assert!(real.0 >= 3, "parked slots were reused");
    let uploads = (N + 4 * N) as u64 * 4;
    let reads = (N + N + N + 4 * N + N) as u64 * 4;
    assert_eq!(real_read.2, uploads + reads);
    let mut host = host;
    assert!(host.get_mut().is_some(), "every slot let go of the array");
}

/// Under [`VerifyPolicy::Full`] a flipped bit in a result is caught by
/// the read, before the storage could go to the host: the slot stays
/// live for the caller to heal, no transfer is recorded, and the healed
/// result is handed over with clean bits.
#[test]
fn a_flipped_result_is_caught_before_it_is_handed_over() {
    let input: Vec<f32> = (0..N).map(|i| i as f32 + 0.25).collect();
    let mut c = ctx();
    c.set_verify(VerifyPolicy::Full);
    let (a, b) = (c.create_buffer(N).unwrap(), c.create_buffer(N).unwrap());
    c.enqueue_write(a, &input).unwrap();
    c.launch(&Double, &[a], b, N).unwrap();
    c.debug_flip_bit(b, 3, 9);
    let in_use = c.in_use_bytes();
    match c.read_and_release(b, 1) {
        Err(OclError::IntegrityViolation {
            kind: IntegrityKind::Checksum,
            buffer,
            ..
        }) => assert_eq!(buffer, b.index()),
        other => panic!("expected a checksum violation, got {other:?}"),
    }
    assert_eq!(c.in_use_bytes(), in_use, "nothing released");
    assert_eq!(c.report().count(EventKind::DeviceToHost), 0);
    c.launch(&Double, &[a], b, N).unwrap();
    let copied = c.host_bytes_copied();
    let healed = c.read_and_release(b, 1).unwrap().unwrap();
    assert_eq!(bits(&healed), bits(&doubled(&input)));
    assert_eq!(c.host_bytes_copied(), copied, "handed over");
    assert_eq!(c.integrity_stats().violations, 1);
}
