use super::tests::{ctx, Double};
use super::*;
use crate::lanes::{first_unwritten, UNWRITTEN};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Writes every lane of a launch over `n` cells but the last.
struct Lazy;

impl DeviceKernel for Lazy {
    fn name(&self) -> String {
        "lazy".into()
    }
    fn cost(&self, _n: usize) -> KernelCost {
        KernelCost::default()
    }
    fn write(&self, args: LaunchArgs<'_>) {
        args.output.slice(..args.n - 1).fill(1.0);
    }
}

/// A kernel that skips a lane is caught: `run` over marked lanes in any
/// build, and, in a debug build, the launch itself, into fresh storage
/// and into recycled storage alike.
#[test]
fn a_kernel_that_skips_a_lane_is_caught() {
    let mut marked = vec![f32::from_bits(UNWRITTEN); 8];
    Lazy.run(KernelArgs {
        inputs: &[],
        output: &mut marked,
        n: 8,
    });
    assert_eq!(first_unwritten(&marked), Some(7));
    if !cfg!(debug_assertions) {
        return; // the launch would publish a lane nothing wrote
    }
    for recycled in [false, true] {
        let mut c = ctx();
        c.set_pooling(true);
        if recycled {
            let old = c.create_buffer(8).unwrap();
            c.enqueue_write(old, &[2.0; 8]).unwrap();
            c.release(old).unwrap();
        }
        let out = c.create_buffer(8).unwrap();
        let hit = catch_unwind(AssertUnwindSafe(|| c.launch(&Lazy, &[], out, 8)));
        let message = *hit.unwrap_err().downcast::<String>().unwrap();
        assert!(
            message.contains("kernel `lazy` left output lane 7 of 8 unwritten"),
            "recycled {recycled}: {message}"
        );
    }
}

/// Fresh launch storage is the kernel's lanes, zeros past its
/// `unwritten_from` and intact guards; `host_bytes_zeroed` counts the
/// lanes the context clears — a launch's tail, a prefix upload's tail, a
/// never-written launch input — and nothing a kernel or upload writes.
#[test]
fn the_context_zeroes_only_what_nothing_writes() {
    let mut c = ctx();
    c.set_verify(VerifyPolicy::Residents);
    let a = c.create_buffer(8).unwrap();
    c.enqueue_write(a, &[1.0; 8]).unwrap();
    assert_eq!(c.report().host_bytes_zeroed, 0, "a whole upload");
    let out = c.create_buffer(8).unwrap();
    c.launch(&Double, &[a], out, 4).unwrap();
    assert_eq!(
        c.peek(out).unwrap(),
        [2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    );
    assert_eq!(c.report().host_bytes_zeroed, 16, "the launch's tail");
    c.verify_buffer(out).unwrap();
    let prefix = c.create_buffer(8).unwrap();
    c.enqueue_write_q(QueueId::DEFAULT, prefix, (&[3.0; 5][..]).into(), &[])
        .unwrap();
    assert_eq!(c.peek(prefix).unwrap()[4..], [3.0, 0.0, 0.0, 0.0]);
    assert_eq!(c.report().host_bytes_zeroed, 16 + 12, "the upload's tail");
    let blank = c.create_buffer(8).unwrap();
    let out = c.create_buffer(8).unwrap();
    c.launch(&Double, &[blank], out, 8).unwrap();
    assert_eq!(c.peek(out).unwrap(), [0.0; 8]);
    assert_eq!(c.report().host_bytes_zeroed, 28 + 32, "a blank input");
    c.reset_profile();
    assert_eq!(c.report().host_bytes_zeroed, 0);
}
