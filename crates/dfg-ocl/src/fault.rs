//! Deterministic fault injection for the simulated device layer.
//!
//! A [`FaultPlan`] is a shared, seeded schedule of device failures, and the
//! one fault-injection API of the device layer: faults can target any
//! operation class ([`FaultKind`]), fire at a fixed 1-based operation index
//! (optionally for a burst of consecutive operations, modeling "fail N
//! times then succeed" transients) or stochastically at a fixed rate drawn
//! from a seeded xorshift generator — never from wall-clock time, so every
//! run of the same plan over the same operation sequence injects the same
//! faults.
//!
//! The plan's state is shared (`Arc<Mutex>`): cloning a plan and installing
//! it on several [`crate::Context`]s (or on successive recovery attempts)
//! keeps one global operation counter per kind, which is what lets a
//! transient "fail twice then succeed" rule resolve across engine retries —
//! each retry re-issues the operation and consumes one remaining failure.
//!
//! Fault spec grammar (comma-separated terms):
//!
//! ```text
//! seed=<u64>            seed for rate-based draws (else DFG_FAULT_SEED, else fixed)
//! <kind>@<n>            the n-th future op of that kind fails (1-based)
//! <kind>@<n>x<burst>    ...and the burst-1 following ops of that kind fail too
//! <kind>:<rate>         each op of that kind fails with probability rate in [0,1)
//! ```
//!
//! where `<kind>` is `alloc`, `transfer`, `launch`, or `compile`. Alloc
//! faults surface as [`crate::OclError::OutOfMemory`] (persistent); compile
//! faults are persistent; transfer and launch faults are transient — they
//! model bus glitches and queue resets that succeed when re-issued.
//!
//! # Rank-level faults
//!
//! Distributed runs add three kinds that target a *rank* (an MPI-rank
//! analogue in `dfg-cluster`) rather than a device operation:
//!
//! ```text
//! rank_die@<r>          rank r dies (panics) at the start of its work
//! rank_die@<r>xb        ...ranks r .. r+b-1 all die
//! rank_hang@<r>         rank r hangs: alive but silent forever
//! rank_die:<rate>       each rank dies with probability rate
//! rank_hang:<rate>      each rank hangs with probability rate
//! exchange_drop:<rate>  each halo-face transmit is lost with probability rate
//! exchange_drop@<n>     the n-th halo-face transmit from a rank is lost
//! ```
//!
//! For `rank_die` / `rank_hang` the `@` index is the **0-based rank id**,
//! not an operation counter; query it with [`FaultPlan::rank_fate`], which
//! is pure (no counters advance, no rng is consumed) so a coordinator and
//! the rank itself can both evaluate the same plan and agree. Rate-based
//! rank fates draw from a splitmix hash of `(seed, kind, rank)` rather than
//! the sequential rng, for the same reason. `exchange_drop` is an ordinary
//! operation-counter kind, checked once per halo-face transmit attempt on
//! the sending rank; it is transient — a retransmit draws again.
//!
//! # Connection-level faults
//!
//! The serving layer (`dfg-serve`) adds three kinds that target the TCP
//! edge rather than the device or the cluster. They are ordinary
//! operation-counter kinds, checked once per socket read/write attempt by
//! the server's `FaultyStream` wrapper:
//!
//! ```text
//! conn_drop:<rate>      each socket op severs the connection with probability rate
//! conn_drop@<n>         the n-th socket op on the plan severs its connection
//! conn_stall:<rate>     each socket op first stalls for the configured pause
//! byte_garble:<rate>    each successful read has one bit flipped
//! ```
//!
//! `conn_drop` is persistent (the connection is gone; the client must
//! reconnect); `conn_stall` and `byte_garble` are transient — the next
//! operation proceeds normally. Like every other kind, the draws come from
//! the plan's seeded generator, so a chaos run over a fixed request
//! schedule injects the same connection faults every time.
//!
//! # Silent-corruption faults
//!
//! Three kinds corrupt *data* instead of failing an operation — the fault
//! fires, bits change, and nothing errors at the injection site. They model
//! the silent-data-corruption regime of long-running device-resident state
//! (see `docs/ROBUSTNESS.md`); the integrity layer's checksums are what
//! turn them into typed [`crate::OclError::IntegrityViolation`]s:
//!
//! ```text
//! mem_flip@<n>          the n-th kernel launch first flips one bit in one
//!                       of its written input buffers
//! mem_flip:<rate>       ...stochastically, per launch
//! stale_slot@<n>        the n-th pool hand-out skips the contents clear,
//!                       leaking the previous owner's data
//! stale_slot:<rate>     ...stochastically, per pool hit
//! halo_garble@<n>       the n-th transmitted halo face has one bit flipped
//! halo_garble:<rate>    ...stochastically, per face transmit
//! ```
//!
//! All three are counter kinds on the shared plan, so an `@n` rule consumed
//! by a failed-and-retried attempt does not re-fire on the retry — the
//! healed re-execution runs clean, which is what makes detect→heal→
//! bit-parity testable. The draws happen in both execution modes (counter
//! parity), but actual corruption only occurs in [`crate::ExecMode::Real`]:
//! model-mode buffers hold no data to corrupt, so silent faults are inert
//! there (unlike every fail-stop kind, which behaves identically in both
//! modes). The kinds are marked transient: once *detected*, re-running the
//! operation after re-uploading the tainted buffer succeeds.

use std::sync::{Arc, Mutex};

/// Operation classes a [`FaultPlan`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Buffer allocations ([`crate::Context::create_buffer`]).
    Alloc,
    /// Host↔device transfers (`enqueue_write*` / `enqueue_read*`).
    Transfer,
    /// Kernel launches (`launch` / `launch_q`).
    Launch,
    /// Kernel compilations (`record_compile`).
    Compile,
    /// A whole rank dying (panic / process loss) in a distributed run. The
    /// `@` index is the 0-based rank id; see [`FaultPlan::rank_fate`].
    RankDie,
    /// A whole rank hanging (alive but silent) in a distributed run. The
    /// `@` index is the 0-based rank id; see [`FaultPlan::rank_fate`].
    RankHang,
    /// A halo-face message lost in transit, checked per transmit attempt on
    /// the sending rank.
    ExchangeDrop,
    /// A TCP connection severed mid-stream, checked per socket read/write
    /// attempt by the serving layer's fault-injecting stream wrapper.
    ConnDrop,
    /// A socket operation stalling (slow client / congested link) before
    /// completing, checked per socket read/write attempt.
    ConnStall,
    /// One bit of a successful socket read flipped in transit, checked per
    /// read; models line noise that the protocol layer must survive.
    ByteGarble,
    /// Silent corruption: one bit of a written kernel-input buffer flipped
    /// before the launch consumes it, checked once per launch (and per
    /// batch member). No error at the injection site — detection is the
    /// integrity layer's job.
    MemFlip,
    /// Silent corruption: a pool hand-out skips the contents clear, so the
    /// new owner observes the previous owner's data where zeros were due.
    /// Checked once per pool hit.
    StaleSlot,
    /// Silent corruption: one bit of a transmitted halo face flipped in
    /// flight, checked once per face transmit on the sending rank.
    HaloGarble,
}

impl FaultKind {
    const ALL: [FaultKind; 13] = [
        FaultKind::Alloc,
        FaultKind::Transfer,
        FaultKind::Launch,
        FaultKind::Compile,
        FaultKind::RankDie,
        FaultKind::RankHang,
        FaultKind::ExchangeDrop,
        FaultKind::ConnDrop,
        FaultKind::ConnStall,
        FaultKind::ByteGarble,
        FaultKind::MemFlip,
        FaultKind::StaleSlot,
        FaultKind::HaloGarble,
    ];

    /// Number of distinct kinds (the size of the per-kind counter arrays).
    pub(crate) const COUNT: usize = 13;

    fn index(self) -> usize {
        match self {
            FaultKind::Alloc => 0,
            FaultKind::Transfer => 1,
            FaultKind::Launch => 2,
            FaultKind::Compile => 3,
            FaultKind::RankDie => 4,
            FaultKind::RankHang => 5,
            FaultKind::ExchangeDrop => 6,
            FaultKind::ConnDrop => 7,
            FaultKind::ConnStall => 8,
            FaultKind::ByteGarble => 9,
            FaultKind::MemFlip => 10,
            FaultKind::StaleSlot => 11,
            FaultKind::HaloGarble => 12,
        }
    }

    /// Lower-case name, as used in fault specs and trace metadata.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Alloc => "alloc",
            FaultKind::Transfer => "transfer",
            FaultKind::Launch => "launch",
            FaultKind::Compile => "compile",
            FaultKind::RankDie => "rank_die",
            FaultKind::RankHang => "rank_hang",
            FaultKind::ExchangeDrop => "exchange_drop",
            FaultKind::ConnDrop => "conn_drop",
            FaultKind::ConnStall => "conn_stall",
            FaultKind::ByteGarble => "byte_garble",
            FaultKind::MemFlip => "mem_flip",
            FaultKind::StaleSlot => "stale_slot",
            FaultKind::HaloGarble => "halo_garble",
        }
    }

    /// Whether an injected fault of this kind is transient by default:
    /// transfer and launch faults succeed when re-issued, a dropped halo
    /// face may survive a retransmit, a stalled or garbled socket op is
    /// over once it happened, and detected silent corruption heals once the
    /// tainted data is re-uploaded or re-derived; alloc and compile faults
    /// persist until the execution plan changes, a dead or hung rank stays
    /// lost, and a severed connection stays severed.
    pub fn default_transient(self) -> bool {
        matches!(
            self,
            FaultKind::Transfer
                | FaultKind::Launch
                | FaultKind::ExchangeDrop
                | FaultKind::ConnStall
                | FaultKind::ByteGarble
                | FaultKind::MemFlip
                | FaultKind::StaleSlot
                | FaultKind::HaloGarble
        )
    }

    /// Whether this kind corrupts data silently (no error at the injection
    /// site) rather than failing the operation it targets.
    pub fn is_silent_kind(self) -> bool {
        matches!(
            self,
            FaultKind::MemFlip | FaultKind::StaleSlot | FaultKind::HaloGarble
        )
    }

    /// Whether this kind targets the serving layer's TCP edge (checked by
    /// `dfg-serve`'s stream wrapper) rather than a device operation.
    pub fn is_conn_kind(self) -> bool {
        matches!(
            self,
            FaultKind::ConnDrop | FaultKind::ConnStall | FaultKind::ByteGarble
        )
    }

    /// Whether this kind targets a whole rank (the `@` index names a
    /// 0-based rank id) rather than a device-operation counter.
    pub fn is_rank_kind(self) -> bool {
        matches!(self, FaultKind::RankDie | FaultKind::RankHang)
    }

    fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fault the plan decided to inject for the current operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Operation class that faulted.
    pub kind: FaultKind,
    /// Whether re-issuing the same operation may succeed.
    pub transient: bool,
    /// 1-based index of the faulted operation within its kind.
    pub op_index: u64,
}

/// The fate a [`FaultPlan`] assigns to a whole rank of a distributed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankFate {
    /// The rank panics at the start of its work and is lost.
    Die,
    /// The rank stays alive but never sends another message.
    Hang,
}

impl RankFate {
    /// Lower-case name, matching the fault-spec kind that caused it.
    pub fn name(self) -> &'static str {
        match self {
            RankFate::Die => "rank_die",
            RankFate::Hang => "rank_hang",
        }
    }
}

/// A stateless splitmix64-style hash of `(seed, kind, rank)` mapped to
/// [0, 1). Rank fates use this instead of the plan's sequential rng so that
/// querying a fate neither consumes randomness nor depends on how many
/// device operations ran first.
fn hashed_unit(seed: u64, kind: FaultKind, rank: usize) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((kind.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((rank as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[derive(Debug, Clone)]
enum Trigger {
    /// Fire on ops `[index, index + burst)` of the rule's kind (1-based).
    At { index: u64, burst: u64 },
    /// Fire with this probability on every op of the rule's kind.
    Rate(f64),
}

#[derive(Debug, Clone)]
struct Rule {
    kind: FaultKind,
    trigger: Trigger,
}

#[derive(Debug)]
struct PlanState {
    rules: Vec<Rule>,
    /// Operations seen so far, per kind.
    seen: [u64; FaultKind::COUNT],
    /// Faults fired so far, per kind.
    fired: [u64; FaultKind::COUNT],
    /// xorshift64 state for rate-based draws; never zero.
    rng: u64,
    seed: u64,
}

impl PlanState {
    fn next_unit(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        // Top 53 bits → uniform in [0, 1).
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Default seed when neither the spec nor `DFG_FAULT_SEED` provides one.
const DEFAULT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic, seeded schedule of device faults. See the module docs
/// for the spec grammar. Cheap to clone; clones share state.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<Mutex<PlanState>>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until rules are added) with the given
    /// seed for rate-based draws.
    pub fn with_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            inner: Arc::new(Mutex::new(PlanState {
                rules: Vec::new(),
                seen: [0; FaultKind::COUNT],
                fired: [0; FaultKind::COUNT],
                rng: if seed == 0 { DEFAULT_SEED } else { seed },
                seed,
            })),
        }
    }

    /// Parse a fault spec (see module docs). The seed, if not given via a
    /// `seed=` term, comes from the `DFG_FAULT_SEED` environment variable,
    /// falling back to a fixed constant — never from wall-clock time.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed: Option<u64> = None;
        let mut rules = Vec::new();
        for term in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(v) = term.strip_prefix("seed=") {
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("bad seed in fault spec term `{term}`"))?,
                );
                continue;
            }
            if let Some((kind, at)) = term.split_once('@') {
                let kind = FaultKind::parse(kind)
                    .ok_or_else(|| format!("unknown fault kind in term `{term}`"))?;
                let (index, burst) = match at.split_once('x') {
                    Some((i, b)) => (
                        i.parse::<u64>()
                            .map_err(|_| format!("bad index in term `{term}`"))?,
                        b.parse::<u64>()
                            .map_err(|_| format!("bad burst in term `{term}`"))?,
                    ),
                    None => (
                        at.parse::<u64>()
                            .map_err(|_| format!("bad index in term `{term}`"))?,
                        1,
                    ),
                };
                if index == 0 && !kind.is_rank_kind() {
                    return Err(format!("fault index is 1-based in term `{term}`"));
                }
                if burst == 0 {
                    return Err(format!("fault burst must be >= 1 in term `{term}`"));
                }
                rules.push(Rule {
                    kind,
                    trigger: Trigger::At { index, burst },
                });
                continue;
            }
            if let Some((kind, rate)) = term.split_once(':') {
                let kind = FaultKind::parse(kind)
                    .ok_or_else(|| format!("unknown fault kind in term `{term}`"))?;
                let rate = rate
                    .parse::<f64>()
                    .map_err(|_| format!("bad rate in term `{term}`"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("rate must be in [0, 1] in term `{term}`"));
                }
                rules.push(Rule {
                    kind,
                    trigger: Trigger::Rate(rate),
                });
                continue;
            }
            return Err(format!(
                "unrecognized fault spec term `{term}` (expected kind@n, kind@nxb, kind:rate, or seed=n)"
            ));
        }
        let seed = seed
            .or_else(|| {
                std::env::var("DFG_FAULT_SEED")
                    .ok()
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(DEFAULT_SEED);
        let plan = FaultPlan::with_seed(seed);
        plan.inner.lock().unwrap().rules = rules;
        Ok(plan)
    }

    /// The seed rate-based draws use (0 means "defaulted").
    pub fn seed(&self) -> u64 {
        self.inner.lock().unwrap().seed
    }

    /// Add a rule: the `n`-th *future* operation of `kind` fails (1-based,
    /// relative to operations already seen), as do the `burst - 1`
    /// operations of that kind after it.
    pub fn fail_nth_from_now(&self, kind: FaultKind, n: u64, burst: u64) {
        assert!(n >= 1, "n is 1-based: 1 fails the next operation");
        assert!(burst >= 1, "burst counts the failing operation itself");
        let mut st = self.inner.lock().unwrap();
        let index = st.seen[kind.index()] + n;
        st.rules.push(Rule {
            kind,
            trigger: Trigger::At { index, burst },
        });
    }

    /// Add a rate rule: every operation of `kind` fails with probability
    /// `rate`, drawn from the plan's seeded generator.
    pub fn fail_at_rate(&self, kind: FaultKind, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        let mut st = self.inner.lock().unwrap();
        st.rules.push(Rule {
            kind,
            trigger: Trigger::Rate(rate),
        });
    }

    /// Count one operation of `kind` and decide whether it faults. Called by
    /// the [`crate::Context`] at every injection point; returns the fault to
    /// surface, if any. At most one fault fires per operation even when
    /// several rules match.
    pub fn check(&self, kind: FaultKind) -> Option<Fault> {
        let mut st = self.inner.lock().unwrap();
        let ki = kind.index();
        st.seen[ki] += 1;
        let op_index = st.seen[ki];
        let mut hit = false;
        for r in 0..st.rules.len() {
            let rule = st.rules[r].clone();
            if rule.kind != kind {
                continue;
            }
            match rule.trigger {
                Trigger::At { index, burst } => {
                    if op_index >= index && op_index < index + burst {
                        hit = true;
                    }
                }
                Trigger::Rate(rate) => {
                    // Draw unconditionally so the stream of random numbers
                    // consumed per operation is independent of earlier hits.
                    let u = st.next_unit();
                    if u < rate {
                        hit = true;
                    }
                }
            }
        }
        if hit {
            st.fired[ki] += 1;
            Some(Fault {
                kind,
                transient: kind.default_transient(),
                op_index,
            })
        } else {
            None
        }
    }

    /// The fate the plan assigns to a rank of a distributed run, from
    /// `rank_die` / `rank_hang` rules. Pure: no operation counters advance
    /// and the sequential rng is untouched, so a cluster coordinator and
    /// the rank itself can both query the same (or an identically seeded)
    /// plan and reach the same verdict. Indexed rules match the 0-based
    /// rank id (`rank_die@1x2` fells ranks 1 and 2); rate rules draw from a
    /// splitmix hash of `(seed, kind, rank)`. Death wins over a hang when
    /// both match.
    pub fn rank_fate(&self, rank: usize) -> Option<RankFate> {
        let st = self.inner.lock().unwrap();
        let mut fate: Option<RankFate> = None;
        for rule in &st.rules {
            let this = match rule.kind {
                FaultKind::RankDie => RankFate::Die,
                FaultKind::RankHang => RankFate::Hang,
                _ => continue,
            };
            let hit = match rule.trigger {
                Trigger::At { index, burst } => {
                    let r = rank as u64;
                    r >= index && r < index + burst
                }
                Trigger::Rate(rate) => hashed_unit(st.seed, rule.kind, rank) < rate,
            };
            if hit && (fate.is_none() || this == RankFate::Die) {
                fate = Some(this);
            }
        }
        fate
    }

    /// Operations of `kind` seen so far.
    pub fn ops_seen(&self, kind: FaultKind) -> u64 {
        self.inner.lock().unwrap().seen[kind.index()]
    }

    /// Faults of `kind` fired so far.
    pub fn faults_fired(&self, kind: FaultKind) -> u64 {
        self.inner.lock().unwrap().fired[kind.index()]
    }

    /// Total faults fired across all kinds.
    pub fn total_fired(&self) -> u64 {
        self.inner.lock().unwrap().fired.iter().sum()
    }

    /// Whether the plan has any rules at all.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_rule_fires_once_at_its_index() {
        let plan = FaultPlan::with_seed(1);
        plan.fail_nth_from_now(FaultKind::Alloc, 3, 1);
        assert!(plan.check(FaultKind::Alloc).is_none());
        assert!(plan.check(FaultKind::Alloc).is_none());
        let f = plan.check(FaultKind::Alloc).expect("third op faults");
        assert_eq!(f.op_index, 3);
        assert!(!f.transient, "alloc faults are persistent");
        assert!(plan.check(FaultKind::Alloc).is_none());
    }

    #[test]
    fn burst_fails_consecutive_ops_then_clears() {
        let plan = FaultPlan::with_seed(1);
        plan.fail_nth_from_now(FaultKind::Transfer, 2, 2);
        assert!(plan.check(FaultKind::Transfer).is_none());
        let f = plan.check(FaultKind::Transfer).expect("op 2 faults");
        assert!(f.transient, "transfer faults are transient");
        assert!(plan.check(FaultKind::Transfer).is_some(), "op 3 faults too");
        assert!(plan.check(FaultKind::Transfer).is_none(), "op 4 succeeds");
    }

    #[test]
    fn kinds_count_independently() {
        let plan = FaultPlan::with_seed(1);
        plan.fail_nth_from_now(FaultKind::Launch, 1, 1);
        assert!(plan.check(FaultKind::Alloc).is_none());
        assert!(plan.check(FaultKind::Compile).is_none());
        assert!(plan.check(FaultKind::Launch).is_some());
    }

    #[test]
    fn relative_index_counts_from_install_time() {
        let plan = FaultPlan::with_seed(1);
        plan.check(FaultKind::Alloc);
        plan.check(FaultKind::Alloc);
        plan.fail_nth_from_now(FaultKind::Alloc, 1, 1);
        assert!(plan.check(FaultKind::Alloc).is_some(), "next op faults");
    }

    #[test]
    fn rate_draws_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::with_seed(seed);
            plan.fail_at_rate(FaultKind::Transfer, 0.5);
            (0..64)
                .map(|_| plan.check(FaultKind::Transfer).is_some())
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same fault sequence");
        assert_ne!(run(42), run(43), "different seed, different sequence");
        let hits = run(42).iter().filter(|&&h| h).count();
        assert!(
            hits > 10 && hits < 54,
            "rate 0.5 fires roughly half: {hits}"
        );
    }

    #[test]
    fn clones_share_counters() {
        let plan = FaultPlan::with_seed(1);
        plan.fail_nth_from_now(FaultKind::Alloc, 2, 1);
        let other = plan.clone();
        assert!(other.check(FaultKind::Alloc).is_none());
        assert!(plan.check(FaultKind::Alloc).is_some(), "shared counter");
        assert_eq!(plan.total_fired(), 1);
        assert_eq!(other.total_fired(), 1);
    }

    #[test]
    fn spec_parses_all_term_forms() {
        let plan = FaultPlan::parse("alloc@3, transfer@1x2, launch:0.25, seed=7").unwrap();
        assert_eq!(plan.seed(), 7);
        assert!(!plan.is_empty());
        assert!(plan.check(FaultKind::Transfer).is_some());
        assert!(plan.check(FaultKind::Transfer).is_some());
        assert!(plan.check(FaultKind::Transfer).is_none());
        assert!(plan.check(FaultKind::Alloc).is_none());
        assert!(plan.check(FaultKind::Alloc).is_none());
        assert!(plan.check(FaultKind::Alloc).is_some());
    }

    #[test]
    fn spec_rejects_malformed_terms() {
        assert!(FaultPlan::parse("alloc@0").is_err(), "index is 1-based");
        assert!(FaultPlan::parse("alloc@1x0").is_err(), "burst >= 1");
        assert!(FaultPlan::parse("frobnicate@1").is_err(), "unknown kind");
        assert!(FaultPlan::parse("transfer:1.5").is_err(), "rate > 1");
        assert!(FaultPlan::parse("seed=banana").is_err(), "bad seed");
        assert!(FaultPlan::parse("gibberish").is_err());
    }

    #[test]
    fn conn_kinds_parse_and_have_expected_transience() {
        let plan =
            FaultPlan::parse("conn_drop@2, conn_stall:0.5, byte_garble:0.25, seed=9").unwrap();
        assert_eq!(plan.seed(), 9);
        assert!(plan.check(FaultKind::ConnDrop).is_none());
        let drop = plan.check(FaultKind::ConnDrop).expect("second op drops");
        assert!(!drop.transient, "conn_drop kills the connection for good");
        assert!(FaultKind::ConnStall.default_transient());
        assert!(FaultKind::ByteGarble.default_transient());
        for kind in [
            FaultKind::ConnDrop,
            FaultKind::ConnStall,
            FaultKind::ByteGarble,
        ] {
            assert!(kind.is_conn_kind());
        }
        assert!(!FaultKind::Transfer.is_conn_kind());
    }

    #[test]
    fn conn_kinds_count_independently_of_device_kinds() {
        let plan = FaultPlan::parse("conn_stall@1, transfer@1").unwrap();
        assert!(plan.check(FaultKind::ConnDrop).is_none());
        assert!(plan.check(FaultKind::ConnStall).is_some());
        assert!(plan.check(FaultKind::Transfer).is_some());
        assert_eq!(plan.ops_seen(FaultKind::ConnStall), 1);
    }

    #[test]
    fn conn_rate_draws_are_seed_stable() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::parse(&format!("conn_drop:0.2, seed={seed}")).unwrap();
            (0..64)
                .map(|_| plan.check(FaultKind::ConnDrop).is_some())
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same drop schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
    }

    #[test]
    fn rank_fate_matches_indexed_rules_by_rank_id() {
        let plan = FaultPlan::parse("rank_die@1x2, rank_hang@0").unwrap();
        assert_eq!(plan.rank_fate(0), Some(RankFate::Hang), "rank 0 is valid");
        assert_eq!(plan.rank_fate(1), Some(RankFate::Die));
        assert_eq!(plan.rank_fate(2), Some(RankFate::Die), "burst covers 2");
        assert_eq!(plan.rank_fate(3), None);
    }

    #[test]
    fn rank_fate_die_wins_over_hang() {
        let plan = FaultPlan::parse("rank_hang@2, rank_die@2").unwrap();
        assert_eq!(plan.rank_fate(2), Some(RankFate::Die));
    }

    #[test]
    fn rank_fate_is_pure_and_rate_draws_are_seed_stable() {
        let plan = FaultPlan::parse("rank_die:0.5, seed=42").unwrap();
        let fates: Vec<_> = (0..64).map(|r| plan.rank_fate(r)).collect();
        let again: Vec<_> = (0..64).map(|r| plan.rank_fate(r)).collect();
        assert_eq!(fates, again, "querying a fate consumes nothing");
        assert_eq!(plan.ops_seen(FaultKind::RankDie), 0, "no counters advance");
        let hits = fates.iter().filter(|f| f.is_some()).count();
        assert!(
            hits > 10 && hits < 54,
            "rate 0.5 fells roughly half: {hits}"
        );
        let other = FaultPlan::parse("rank_die:0.5, seed=43").unwrap();
        let other_fates: Vec<_> = (0..64).map(|r| other.rank_fate(r)).collect();
        assert_ne!(fates, other_fates, "different seed, different fates");
    }

    #[test]
    fn rank_fate_rate_does_not_perturb_the_sequential_rng() {
        let drain = |plan: &FaultPlan| -> Vec<bool> {
            (0..32)
                .map(|_| plan.check(FaultKind::Transfer).is_some())
                .collect()
        };
        let clean = FaultPlan::parse("transfer:0.5, seed=42").unwrap();
        let queried = FaultPlan::parse("transfer:0.5, rank_die:0.5, seed=42").unwrap();
        for r in 0..16 {
            queried.rank_fate(r);
        }
        assert_eq!(drain(&clean), drain(&queried));
    }

    #[test]
    fn exchange_drop_is_an_ordinary_transient_counter_kind() {
        let plan = FaultPlan::parse("exchange_drop@2").unwrap();
        assert_eq!(plan.rank_fate(2), None, "exchange_drop is not a rank fate");
        assert!(plan.check(FaultKind::ExchangeDrop).is_none());
        let f = plan
            .check(FaultKind::ExchangeDrop)
            .expect("second transmit");
        assert!(f.transient, "a retransmit may survive");
        assert!(FaultPlan::parse("exchange_drop@0").is_err(), "1-based");
    }

    #[test]
    fn silent_kinds_parse_count_and_are_transient() {
        let plan =
            FaultPlan::parse("mem_flip@2, stale_slot:0.5, halo_garble@1x2, seed=11").unwrap();
        assert!(plan.check(FaultKind::MemFlip).is_none());
        let f = plan.check(FaultKind::MemFlip).expect("second launch flips");
        assert!(f.transient, "detected corruption heals on re-derive");
        assert_eq!(f.op_index, 2);
        assert!(plan.check(FaultKind::HaloGarble).is_some());
        assert!(plan.check(FaultKind::HaloGarble).is_some(), "burst of 2");
        assert!(plan.check(FaultKind::HaloGarble).is_none());
        for kind in [
            FaultKind::MemFlip,
            FaultKind::StaleSlot,
            FaultKind::HaloGarble,
        ] {
            assert!(kind.is_silent_kind());
            assert!(kind.default_transient());
            assert!(!kind.is_conn_kind());
            assert!(!kind.is_rank_kind());
        }
        assert!(!FaultKind::Transfer.is_silent_kind());
        assert!(FaultPlan::parse("mem_flip@0").is_err(), "1-based");
    }

    #[test]
    fn silent_rate_draws_are_seed_stable_and_independent() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::parse(&format!("stale_slot:0.3, seed={seed}")).unwrap();
            (0..64)
                .map(|_| plan.check(FaultKind::StaleSlot).is_some())
                .collect()
        };
        assert_eq!(run(5), run(5), "same seed, same corruption schedule");
        assert_ne!(run(5), run(6));
        // Silent kinds keep their own counters.
        let plan = FaultPlan::parse("mem_flip@1, launch@1").unwrap();
        assert!(plan.check(FaultKind::Launch).is_some());
        assert!(plan.check(FaultKind::MemFlip).is_some());
        assert_eq!(plan.ops_seen(FaultKind::MemFlip), 1);
        assert_eq!(plan.ops_seen(FaultKind::Launch), 1);
    }

    #[test]
    fn empty_spec_is_a_no_op_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        for _ in 0..8 {
            assert!(plan.check(FaultKind::Alloc).is_none());
        }
    }
}
