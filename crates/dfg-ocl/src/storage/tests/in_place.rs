use super::tests::{
    bits, block_of, both_modes, ctx, planes, shared_src, src, Double, Ew, Lane, ADD, MUL, N, SUB,
};
use super::*;
use crate::fault::{FaultKind, FaultPlan};
use crate::SharedArray;

/// `r = u*u + u` with `u` an adopted host array, then `(v - r) - (v - r)`
/// style steps with a copied `v`: donors on the left, on the right and on
/// both sides; an adopted operand dying beside a donor. Real and Model
/// record the same events, clocks, high-water mark and fault draws (the
/// harness) and the same pool counters, with pooling off and on; only
/// the Real run ever computes in place, and never over `u`'s array.
#[test]
fn donation_moves_storage_and_nothing_the_model_counts() {
    let n = 37;
    let host = SharedArray::from((0..n).map(|i| i as f32 - 5.5).collect::<Vec<_>>());
    let before = bits(&host);
    let v: Vec<f32> = (0..n).map(|i| 0.25 * i as f32).collect();
    for pooling in [false, true] {
        let (_, [real, model]) = both_modes(|c, bytes| {
            c.set_pooling(pooling);
            let (a, b) = (c.create_buffer(n).unwrap(), c.create_buffer(n).unwrap());
            c.enqueue_write_q(QueueId::DEFAULT, a, shared_src(bytes, &host), &[])
                .unwrap();
            c.enqueue_write_q(QueueId::DEFAULT, b, src(bytes, &v), &[])
                .unwrap();
            let t = c.create_buffer(n).unwrap();
            c.launch(&MUL, &[a, a], t, n).unwrap();
            let mut flags = Vec::new();
            let mut step = |c: &mut Context, k: &Ew, inputs: &[BufferId], dying: &[_]| {
                let out = c.create_buffer(n).unwrap();
                let placement = c.launch_then_release(k, inputs, out, n, dying).unwrap();
                flags.push(placement == Placement::InPlace);
                out
            };
            let r = step(c, &ADD, &[t, a], &[t, a]); // t donates, u's array never
            let s = step(c, &SUB, &[b, r], &[r]); // a donor on the right
            let d = step(c, &SUB, &[s, s], &[s]); // t - t on a dying t
            let q = step(c, &SUB, &[d, b], &[d, b]); // donor on the left
            if bytes {
                let want: Vec<u32> = (0..n)
                    .map(|i| {
                        let u = host[i];
                        let s = v[i] - (u * u + u);
                        ((s - s) - v[i]).to_bits()
                    })
                    .collect();
                let got = bits(&c.peek(q).unwrap());
                assert_eq!(got, want);
            }
            c.release(q).unwrap();
            assert_eq!(c.in_use_bytes(), 0);
            (flags, (c.pool_hits(), c.pooled_bytes()))
        });
        assert_eq!(real.0, [true; 4], "pooling {pooling}: real donates");
        assert_eq!(model.0, [false; 4], "a model context has no storage");
        assert_eq!(real.1, model.1, "pooling {pooling}: pool counters");
    }
    let mut host = host;
    assert!(host.get_mut().is_some(), "every slot let go of u's array");
    let after = bits(&host);
    assert_eq!(after, before, "u's array is bit-identical");
}

/// A kernel that does not declare itself in place, an operand narrower
/// than the output, a dying buffer that is no operand and an adopted
/// array are all released without donating; a failed launch releases
/// nothing, and its dying operand is still intact for the retry.
#[test]
fn donation_only_where_the_contract_allows_and_never_on_failure() {
    let mut c = ctx();
    let a = c.create_buffer(8).unwrap();
    c.enqueue_write(a, &[3.0; 8]).unwrap();
    let out = c.create_buffer(8).unwrap();
    let own = Ok(Placement::Own);
    assert_eq!(c.launch_then_release(&Double, &[a], out, 8, &[a]), own);
    assert_eq!(c.peek(out).unwrap(), vec![6.0; 8]);

    let (narrow, other) = (c.create_buffer(4).unwrap(), c.create_buffer(8).unwrap());
    c.enqueue_write(narrow, &[1.0; 4]).unwrap();
    c.enqueue_write(other, &[1.0; 8]).unwrap();
    let wide = c.create_buffer(8).unwrap();
    let dying = [narrow, other];
    let placement = c.launch_then_release(&ADD, &[narrow, narrow], wide, 4, &dying);
    assert_eq!(placement, own);

    let host = SharedArray::from(vec![2.0f32; 8]);
    let adopted = c.create_buffer(8).unwrap();
    c.enqueue_write_q(QueueId::DEFAULT, adopted, (&host).into(), &[])
        .unwrap();
    let sum = c.create_buffer(8).unwrap();
    let placement = c.launch_then_release(&ADD, &[adopted, out], sum, 8, &[adopted]);
    assert_eq!(placement, own);
    assert_eq!(c.peek(sum).unwrap(), vec![8.0; 8]);

    let plan = FaultPlan::with_seed(0);
    plan.fail_nth_from_now(FaultKind::Launch, 1, 1);
    c.set_fault_plan(plan);
    let in_use = c.in_use_bytes();
    let next = c.create_buffer(8).unwrap();
    let err = c.launch_then_release(&ADD, &[out, sum], next, 8, &[out, sum]);
    assert!(matches!(err, Err(OclError::LaunchFailed { .. })));
    assert_eq!(c.in_use_bytes(), in_use + 32, "nothing released");
    assert_eq!(c.peek(out).unwrap(), vec![6.0; 8], "the donor is intact");
    let placement = c.launch_then_release(&ADD, &[out, sum], next, 8, &[out, sum]);
    assert_eq!(placement, Ok(Placement::InPlace));
    assert_eq!(c.peek(next).unwrap(), vec![14.0; 8]);
}

/// A view shares its plane of the operand. A flip through it — the
/// write a `mem_flip` makes — lands in a copy of its own, so neither the
/// operand nor a sibling view sees it, and verification names the view;
/// so does an injected `mem_flip` on either operand of a launch, which a
/// fresh view of the clean operand heals.
#[test]
fn a_write_through_a_view_is_copied_first_and_never_reaches_its_siblings() {
    let (p_bits, plane) = (bits(&planes()), |k: usize| bits(&planes()[k * N..][..N]));
    let mut c = ctx();
    c.set_verify(VerifyPolicy::Full);
    let p = c.create_buffer(4 * N).unwrap();
    c.enqueue_write(p, &planes()).unwrap();
    let view = |c: &mut Context, k: usize| {
        let v = c.create_buffer(N).unwrap();
        assert_eq!(c.launch(&Lane(k), &[p], v, N), Ok(()));
        assert!(block_of(c, v).is_some() && block_of(c, v) == block_of(c, p));
        v
    };
    let views = [0, 1, 2, 3].map(|k| view(&mut c, k));
    for (k, &v) in views.iter().enumerate() {
        assert_eq!(bits(&c.peek(v).unwrap()), plane(k));
    }
    c.debug_flip_bit(views[1], 2, 7);
    assert_eq!(block_of(&c, views[1]), None, "the flip copied the plane");
    let mut flipped = plane(1);
    flipped[2] ^= 1 << 7;
    assert_eq!(bits(&c.peek(views[1]).unwrap()), flipped);
    assert_eq!(bits(&c.peek(p).unwrap()), p_bits);
    for k in [0, 2, 3] {
        assert_eq!(bits(&c.peek(views[k]).unwrap()), plane(k));
        c.verify_buffer(views[k]).unwrap();
    }
    c.verify_buffer(p).unwrap();
    assert!(matches!(
        c.verify_buffer(views[1]),
        Err(OclError::IntegrityViolation { buffer, .. }) if buffer == views[1].index()
    ));

    let mut victims = std::collections::BTreeSet::new();
    for seed in 0..16 {
        let (a, b) = (view(&mut c, 0), view(&mut c, 2));
        let plan = FaultPlan::with_seed(seed);
        plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
        c.set_fault_plan(plan);
        let out = c.create_buffer(N).unwrap();
        let victim = match c.launch(&ADD, &[a, b], out, N) {
            Err(OclError::IntegrityViolation { buffer, .. }) => buffer,
            other => panic!("seed {seed}: expected a detected flip, got {other:?}"),
        };
        victims.insert(usize::from(victim == b.index()));
        assert_eq!(bits(&c.peek(p).unwrap()), p_bits, "seed {seed}");
        let (tainted, clean) = if victim == a.index() { (a, b) } else { (b, a) };
        assert_eq!(block_of(&c, tainted), None);
        assert_eq!(block_of(&c, clean), block_of(&c, p));
        c.clear_fault_plan();
        c.release(tainted).unwrap();
        let healed = view(&mut c, if tainted == a { 0 } else { 2 });
        let inputs = if tainted == a {
            [healed, b]
        } else {
            [a, healed]
        };
        c.launch(&ADD, &inputs, out, N).unwrap();
        let want: Vec<u32> = (0..N)
            .map(|t| (planes()[t] + planes()[2 * N + t]).to_bits())
            .collect();
        assert_eq!(bits(&c.peek(out).unwrap()), want, "seed {seed}");
        for id in [inputs[0], inputs[1], out] {
            c.release(id).unwrap();
        }
    }
    assert_eq!(victims.len(), 2, "both operands were hit");
}

/// While another slot holds a view's storage — its operand, or a
/// sibling on any plane — a dying view is copied on write: the launch
/// counts as in place and the others keep their bits. The last holder is
/// written where it lies. Real and Model record the same events, clocks,
/// high-water mark and fault draws (the harness), and the same `in_use`
/// and pool counters, with pooling off and on; only Real shares or
/// donates.
#[test]
fn a_view_is_written_where_it_lies_only_as_the_sole_holder_of_its_storage() {
    let p_bits = bits(&planes());
    let plane = |k: usize| planes()[k * N..][..N].to_vec();
    let xs: Vec<f32> = (0..N).map(|i| 100.0 + i as f32).collect();
    for pooling in [false, true] {
        let (_, [real, model]) = both_modes(|c, bytes| {
            c.set_pooling(pooling);
            let p = c.create_buffer(4 * N).unwrap();
            c.enqueue_write_q(QueueId::DEFAULT, p, src(bytes, &planes()), &[])
                .unwrap();
            let x = c.create_buffer(N).unwrap();
            c.enqueue_write_q(QueueId::DEFAULT, x, src(bytes, &xs), &[])
                .unwrap();
            let mut placements = Vec::new();
            let mut launch = |c: &mut Context, k: &dyn DeviceKernel, inputs: &[_], dying: &[_]| {
                let out = c.create_buffer(N).unwrap();
                placements.push(c.launch_then_release(k, inputs, out, N, dying).unwrap());
                out
            };
            let v1 = launch(c, &Lane(1), &[p], &[]);
            let s = launch(c, &ADD, &[v1, x], &[v1]);
            if bytes {
                assert_eq!(bits(&c.peek(p).unwrap()), p_bits, "the operand's plane");
                assert_eq!(block_of(c, s), None, "a copy of its own");
            }
            let (v0, v2, w2) = (
                launch(c, &Lane(0), &[p], &[]),
                launch(c, &Lane(2), &[p], &[]),
                launch(c, &Lane(2), &[p], &[]),
            );
            c.release(p).unwrap();
            let u = launch(c, &MUL, &[v2, w2], &[v2]);
            if bytes {
                assert_eq!(block_of(c, u), None, "v0 and w2 hold the storage");
                assert_eq!(c.peek(w2).unwrap(), plane(2));
                assert_eq!(c.peek(v0).unwrap(), plane(0));
                let want: Vec<f32> = plane(2).iter().map(|v| v * v).collect();
                assert_eq!(c.peek(u).unwrap(), want);
            }
            let block = block_of(c, v0);
            c.release(w2).unwrap();
            let t = launch(c, &SUB, &[v0, x], &[v0]);
            if bytes {
                assert!(
                    block.is_some() && block_of(c, t) == block,
                    "written where it lies"
                );
                let want: Vec<f32> = (0..N).map(|i| plane(0)[i] - xs[i]).collect();
                assert_eq!(c.peek(t).unwrap(), want);
            }
            for id in [x, s, t, u] {
                c.release(id).unwrap();
            }
            assert_eq!(c.in_use_bytes(), 0);
            (placements, (c.pool_hits(), c.pooled_bytes()))
        });
        use Placement::{InPlace, Own, View};
        assert_eq!(real.0, [View, InPlace, View, View, View, InPlace, InPlace]);
        assert_eq!(model.0, [Own; 7], "a model context has no storage");
        assert_eq!(real.1, model.1, "pooling {pooling}: pool counters");
    }
}

/// A launch never views an adopted host array: it copies the plane into
/// storage of the output's own, which a flip and a donation then write
/// without reaching the host.
#[test]
fn an_adopted_array_is_never_viewed() {
    let host = SharedArray::from(planes());
    let mut c = ctx();
    let p = c.create_buffer(4 * N).unwrap();
    c.enqueue_write_q(QueueId::DEFAULT, p, (&host).into(), &[])
        .unwrap();
    let v = c.create_buffer(N).unwrap();
    let placement = c.launch_then_release(&Lane(1), &[p], v, N, &[p]);
    assert_eq!(placement, Ok(Placement::Own));
    assert_eq!(block_of(&c, v), None);
    assert_eq!(c.peek(v).unwrap(), planes()[N..2 * N]);
    c.debug_flip_bit(v, 0, 31);
    let out = c.create_buffer(N).unwrap();
    let placement = c.launch_then_release(&MUL, &[v, v], out, N, &[v]);
    assert_eq!(placement, Ok(Placement::InPlace));
    assert_eq!(bits(&host), bits(&planes()));
    drop(c);
    let mut host = host;
    assert!(host.get_mut().is_some(), "every slot let go of the array");
}
