//! What one derive asks for — the program that runs and the executor it
//! runs on: the argument of every holder's `run`.

use std::str::FromStr;

use dfg_dataflow::{NetworkSpec, NodeId, Strategy};

use crate::recovery::ExecLevel;

/// What a derive computes.
#[derive(Debug, Clone, Copy)]
pub enum Program<'a> {
    /// Source text, compiled (cached) and optimized at the engine's level;
    /// its natural result.
    Source(&'a str),
    /// Source text; the fields bound to the named outputs, in order.
    Outputs(&'a str, &'a [&'a str]),
    /// An already-lowered network's roots, run as given: the engine's
    /// optimizer is not applied.
    Network(&'a NetworkSpec, &'a [NodeId]),
}

/// The executor a derive runs on: one of the paper's three strategies, or
/// streamed fusion under a device-memory budget (`None`: the device's
/// capacity). Its name is the wire and CLI name of `--strategy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exec {
    /// One kernel per filter, host round-trips between filters.
    Roundtrip,
    /// One kernel per filter, device-resident intermediates.
    Staged,
    /// Whole-network fused kernel (the paper's headline strategy).
    Fusion,
    /// The fused kernel over z-slabs under the budget (the paper's §VI
    /// future work): bit-identical to fusion, natural result only.
    Streamed(Option<u64>),
}

impl Exec {
    /// Every executor, streamed under the device's capacity.
    pub const ALL: [Exec; 4] = [
        Exec::Roundtrip,
        Exec::Staged,
        Exec::Fusion,
        Exec::Streamed(None),
    ];

    /// `roundtrip` | `staged` | `fusion` | `streamed`.
    pub fn name(self) -> &'static str {
        self.level().name()
    }

    /// The recovery level a clean run of this executor completes at.
    pub fn level(self) -> ExecLevel {
        match self {
            Exec::Roundtrip => ExecLevel::Roundtrip,
            Exec::Staged => ExecLevel::Staged,
            Exec::Fusion => ExecLevel::Fusion,
            Exec::Streamed(_) => ExecLevel::Streamed,
        }
    }
}

impl From<Strategy> for Exec {
    fn from(strategy: Strategy) -> Exec {
        match strategy {
            Strategy::Roundtrip => Exec::Roundtrip,
            Strategy::Staged => Exec::Staged,
            Strategy::Fusion => Exec::Fusion,
        }
    }
}

impl FromStr for Exec {
    type Err = String;

    /// Parse a [`Exec::name`]; `streamed` runs under the device's capacity.
    fn from_str(name: &str) -> Result<Exec, String> {
        let known = Exec::ALL.into_iter().find(|exec| exec.name() == name);
        known.ok_or_else(|| format!("unknown strategy `{name}` (fusion|staged|roundtrip|streamed)"))
    }
}

/// One derive: what runs, and on which executor.
///
/// ```
/// use dfg_core::{Engine, FieldSet, Request, Strategy};
/// use dfg_ocl::DeviceProfile;
///
/// let mut engine = Engine::new(DeviceProfile::intel_x5660());
/// let mut fields = FieldSet::new(8);
/// fields.insert_scalar("u", vec![3.0; 8]).unwrap();
/// let request = Request::outputs("a = u*u\nb = sqrt(a)", &["a", "b"], Strategy::Fusion);
/// let (out, report) = engine.run(&request, &fields).unwrap();
/// assert_eq!((out[0].data[0], out[1].data[0]), (9.0, 3.0));
/// assert_eq!(report.table2_row(), (1, 1, 1), "one kernel writes both");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// What runs.
    pub program: Program<'a>,
    /// Where it runs.
    pub exec: Exec,
}

impl<'a> Request<'a> {
    /// `source`'s natural result.
    pub fn source(source: &'a str, exec: impl Into<Exec>) -> Request<'a> {
        Request {
            program: Program::Source(source),
            exec: exec.into(),
        }
    }

    /// `source`'s named `outputs`, in order.
    pub fn outputs(source: &'a str, outputs: &'a [&'a str], exec: impl Into<Exec>) -> Request<'a> {
        Request {
            program: Program::Outputs(source, outputs),
            exec: exec.into(),
        }
    }

    /// A lowered network's `roots`, run as given.
    pub fn network(
        spec: &'a NetworkSpec,
        roots: &'a [NodeId],
        exec: impl Into<Exec>,
    ) -> Request<'a> {
        Request {
            program: Program::Network(spec, roots),
            exec: exec.into(),
        }
    }
}
