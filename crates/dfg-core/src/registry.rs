//! Multi-tenant session registry: one engine per tenant, one shared clock.
//!
//! A serving process (see the `dfg-serve` crate) keeps many concurrent
//! callers' state alive at once. The [`SessionRegistry`] is the dfg-core
//! piece of that story: it maps tenant ids to owned [`Session`]s (created
//! lazily on first use), clamps each tenant's device allocation through a
//! per-tenant memory quota, and guarantees that a failed request cannot
//! leak device memory into a tenant's long-lived session.
//!
//! **Quotas** reuse the existing pool accounting wholesale: a tenant's
//! engine is built from a copy of the registry's [`DeviceProfile`] whose
//! `global_mem_bytes` is lowered to the quota, so every allocation path —
//! pool hits, pool evictions, and the out-of-memory failure mode — behaves
//! exactly as it does on a small device. A quota breach surfaces as the
//! same typed [`EngineError`] the engine already produces (check it with
//! [`EngineError::is_out_of_memory`]), and when the engine's
//! [`crate::RecoveryPolicy`] is enabled the request first walks the
//! degradation ladder (staged → streamed → roundtrip → CPU) before giving
//! up, which is the serving layer's graceful-degradation story.
//!
//! **Leak safety**: each request runs inside an allocation guard. On any
//! error the registry rolls the tenant's context back to the pre-request
//! allocation mark and prunes resident-field entries whose buffers were
//! rolled back, so `in_use_bytes` returns to its pre-request baseline and
//! the next request starts clean.
//!
//! ```
//! use dfg_core::{EngineOptions, FieldSet, Request, SessionRegistry, Strategy};
//! use dfg_ocl::DeviceProfile;
//!
//! let mut reg = SessionRegistry::new(DeviceProfile::intel_x5660(), EngineOptions::default());
//! let mut fields = FieldSet::new(8);
//! fields.insert_scalar("u", vec![2.0; 8]).unwrap();
//!
//! // Two tenants, isolated sessions, both served from one registry.
//! let request = Request::source("m = u*u", Strategy::Fusion);
//! for tenant in ["alice", "bob"] {
//!     let (out, _report) = reg.run(tenant, &request, &fields).unwrap();
//!     assert_eq!(out[0].data, vec![4.0; 8]);
//! }
//! assert_eq!(reg.len(), 2);
//! let stats = reg.stats("alice").unwrap();
//! assert_eq!(stats.session.cycles, 1);
//! ```

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dfg_ocl::DeviceProfile;
use dfg_trace::Tracer;

use crate::cancel::CancelToken;
use crate::engine::{Engine, EngineOptions, ExecReport};
use crate::error::EngineError;
use crate::fields::{Field, FieldSet};
use crate::request::Request;
use crate::session::{Session, SessionStats};

/// One tenant's long-lived state inside the registry.
struct Tenant {
    session: Session,
    quota_bytes: u64,
    /// When the tenant last started a request (or was created) — the clock
    /// idle-TTL eviction and LRU pressure eviction run against.
    last_used: Instant,
}

/// A point-in-time snapshot of one tenant's counters, suitable for a
/// serving stats endpoint. Pool and kernel-cache counters are broken out
/// *per tenant* (each tenant owns its context), so quota accounting is
/// observable from the outside.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Tenant id this snapshot describes.
    pub tenant: String,
    /// Session counters: cycles, uploads (skipped), codegen compiles/hits.
    pub session: SessionStats,
    /// Allocations served by this tenant's buffer pool.
    pub pool_hits: u64,
    /// Bytes parked in this tenant's pool awaiting reuse.
    pub pooled_bytes: u64,
    /// Bytes held by this tenant's device-resident input fields.
    pub resident_bytes: u64,
    /// Total live device bytes for this tenant (resident + transient).
    pub in_use_bytes: u64,
    /// The tenant's device-memory quota in bytes.
    pub quota_bytes: u64,
    /// Integrity verifications this tenant's context has performed (zero
    /// unless the engine runs with a [`dfg_ocl::VerifyPolicy`] above `Off`).
    pub integrity_checks: u64,
    /// Integrity violations detected in this tenant's buffers (each one
    /// surfaced as a typed error and healed by re-upload or retry).
    pub integrity_violations: u64,
    /// Milliseconds since the tenant last started a request — the value
    /// idle-TTL eviction compares against its threshold.
    pub idle_ms: u64,
}

/// Owns per-tenant [`Session`]s keyed by tenant id; see the module-level
/// documentation above for the quota and leak-safety contract.
pub struct SessionRegistry {
    profile: DeviceProfile,
    options: EngineOptions,
    tracer: Option<Tracer>,
    default_quota: Option<u64>,
    quotas: HashMap<String, u64>,
    tenants: HashMap<String, Tenant>,
}

impl SessionRegistry {
    /// A registry serving sessions on `profile` with `options`. Tenants
    /// are created lazily on their first request.
    pub fn new(profile: DeviceProfile, options: EngineOptions) -> Self {
        SessionRegistry {
            profile,
            options,
            tracer: None,
            default_quota: None,
            quotas: HashMap::new(),
            tenants: HashMap::new(),
        }
    }

    /// Attach a tracer; sessions created after this call emit spans into
    /// it (`upload.skipped`, `codegen.cached`, strategy spans, …).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Default per-tenant quota in bytes for tenants without an explicit
    /// [`SessionRegistry::set_quota`]. `None` (the initial state) means
    /// the device's full capacity.
    pub fn set_default_quota(&mut self, bytes: Option<u64>) {
        self.default_quota = bytes;
    }

    /// Set `tenant`'s device-memory quota. Takes effect when the tenant's
    /// session is created — set quotas before the tenant's first request
    /// (or after [`SessionRegistry::end_tenant`]); an already-live session
    /// keeps the quota it was created with.
    pub fn set_quota(&mut self, tenant: &str, bytes: u64) {
        self.quotas.insert(tenant.to_string(), bytes);
    }

    /// The quota that applies to `tenant` right now (explicit, default, or
    /// full device capacity).
    pub fn quota_of(&self, tenant: &str) -> u64 {
        if let Some(t) = self.tenants.get(tenant) {
            return t.quota_bytes;
        }
        self.quotas
            .get(tenant)
            .copied()
            .or(self.default_quota)
            .unwrap_or(self.profile.global_mem_bytes)
            .min(self.profile.global_mem_bytes)
    }

    fn entry(&mut self, tenant: &str) -> &mut Tenant {
        if !self.tenants.contains_key(tenant) {
            let quota_bytes = self.quota_of(tenant);
            let mut profile = self.profile.clone();
            profile.global_mem_bytes = quota_bytes;
            let mut engine = Engine::with_options(profile, self.options);
            if let Some(tracer) = &self.tracer {
                engine.set_tracer(tracer.clone());
            }
            self.tenants.insert(
                tenant.to_string(),
                Tenant {
                    session: engine.into_session(),
                    quota_bytes,
                    last_used: Instant::now(),
                },
            );
        }
        let entry = self.tenants.get_mut(tenant).expect("just inserted");
        entry.last_used = Instant::now();
        entry
    }

    /// Run one cycle of `tenant`'s session (see [`Session::run`]) under its
    /// quota, inside an allocation guard: on error the context is rolled
    /// back to the pre-request mark and resident entries for rolled-back
    /// buffers are pruned, so a failed request cannot leak device bytes
    /// into the long-lived session.
    pub fn run(
        &mut self,
        tenant: &str,
        request: &Request,
        fields: &FieldSet,
    ) -> Result<(Vec<Field>, ExecReport), EngineError> {
        let session = &mut self.entry(tenant).session;
        let mark = session.ctx.alloc_mark();
        let result = session.run(request, fields);
        if result.is_err() {
            session.ctx.rollback(&mark);
            session.state.resident.retain(|_, r| mark.contains(r.buf));
        }
        result
    }

    /// Record that `tenant`'s latest request was served by a merged
    /// cross-request network (bumps [`SessionStats::merged`], creating the
    /// tenant's session if needed).
    pub fn note_merged(&mut self, tenant: &str) {
        self.entry(tenant).session.state.stats.merged += 1;
    }

    /// Record kernel launches the optimizer saved for `tenant`'s latest
    /// request (bumps [`SessionStats::opt_saved_kernels`]). Used by serving
    /// layers that optimize/merge networks outside the tenant's engine.
    pub fn note_opt_saved(&mut self, tenant: &str, kernels: u64) {
        self.entry(tenant).session.state.stats.opt_saved_kernels += kernels;
    }

    /// Install (or clear, with `None`) the cancellation token polled during
    /// `tenant`'s derivations; see [`Session::set_cancel`]. Creates the
    /// tenant's session if needed (a request about to run is a use).
    pub fn set_cancel(&mut self, tenant: &str, token: Option<CancelToken>) {
        self.entry(tenant).session.set_cancel(token);
    }

    /// Counters for `tenant`, or `None` if it has never made a request.
    pub fn stats(&self, tenant: &str) -> Option<TenantStats> {
        self.tenants.get(tenant).map(|t| {
            let integrity = t.session.context().integrity_stats();
            TenantStats {
                tenant: tenant.to_string(),
                session: t.session.stats().clone(),
                pool_hits: t.session.pool_hits(),
                pooled_bytes: t.session.pooled_bytes(),
                resident_bytes: t.session.resident_bytes(),
                in_use_bytes: t.session.context().in_use_bytes(),
                quota_bytes: t.quota_bytes,
                integrity_checks: integrity.checks,
                integrity_violations: integrity.violations,
                idle_ms: t.last_used.elapsed().as_millis() as u64,
            }
        })
    }

    /// Stats for every live tenant, sorted by tenant id.
    pub fn all_stats(&self) -> Vec<TenantStats> {
        let mut ids: Vec<&String> = self.tenants.keys().collect();
        ids.sort();
        ids.into_iter()
            .map(|id| self.stats(id).expect("live tenant"))
            .collect()
    }

    /// Ids of every live tenant, sorted.
    pub fn tenant_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.tenants.keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Close `tenant`'s session, releasing its resident buffers, and
    /// return its final counters (`None` if the tenant never existed).
    pub fn end_tenant(&mut self, tenant: &str) -> Option<SessionStats> {
        self.tenants.remove(tenant).map(|t| t.session.end())
    }

    /// How long `tenant` has been idle (time since its last request), or
    /// `None` if it has no live session.
    pub fn idle_for(&self, tenant: &str) -> Option<Duration> {
        self.tenants.get(tenant).map(|t| t.last_used.elapsed())
    }

    /// Evict every tenant idle for at least `ttl`: close their sessions
    /// (releasing all device memory) and return the evicted ids, sorted.
    /// The serving layer's maintenance tick calls this so weeks-long uptime
    /// does not accumulate sessions for tenants that left.
    pub fn evict_idle(&mut self, ttl: Duration) -> Vec<String> {
        let mut expired: Vec<String> = self
            .tenants
            .iter()
            .filter(|(_, t)| t.last_used.elapsed() >= ttl)
            .map(|(id, _)| id.clone())
            .collect();
        expired.sort();
        for id in &expired {
            if let Some(t) = self.tenants.remove(id) {
                t.session.end();
            }
        }
        expired
    }

    /// Evict the least-recently-used tenant (ties broken by smaller tenant
    /// id, so eviction order is deterministic) and return its id, or `None`
    /// if the registry is empty. The memory-pressure watchdog calls this
    /// after pool trimming when device bytes are still over the threshold.
    pub fn evict_lru(&mut self) -> Option<String> {
        let victim = self
            .tenants
            .iter()
            .min_by(|(ida, a), (idb, b)| a.last_used.cmp(&b.last_used).then(ida.cmp(idb)))
            .map(|(id, _)| id.clone())?;
        if let Some(t) = self.tenants.remove(&victim) {
            t.session.end();
        }
        Some(victim)
    }

    /// Return every tenant's pool-parked bytes to the allocator (see
    /// [`dfg_ocl::Context::trim_pool`]); returns the total bytes freed.
    /// The cheap first rung of the memory-pressure watchdog — resident
    /// fields and kernel caches survive, so amortization is untouched.
    pub fn trim_pools(&mut self) -> u64 {
        self.tenants
            .values_mut()
            .map(|t| t.session.ctx.trim_pool())
            .sum()
    }

    /// Live device bytes across all tenants (resident + transient).
    pub fn total_in_use_bytes(&self) -> u64 {
        self.tenants
            .values()
            .map(|t| t.session.context().in_use_bytes())
            .sum()
    }

    /// Pool-parked bytes across all tenants (allocated but reusable).
    pub fn total_pooled_bytes(&self) -> u64 {
        self.tenants
            .values()
            .map(|t| t.session.pooled_bytes())
            .sum()
    }

    /// Number of live tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenant has made a request yet.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RecoveryPolicy, Strategy};

    fn fields(n: usize) -> FieldSet {
        let mut f = FieldSet::new(n);
        f.insert_scalar("u", (0..n).map(|i| i as f32 * 0.5).collect())
            .unwrap();
        f.insert_scalar("v", (0..n).map(|i| 1.0 + i as f32).collect())
            .unwrap();
        f
    }

    fn fusion(source: &str) -> Request<'_> {
        Request::source(source, Strategy::Fusion)
    }

    #[test]
    fn tenants_are_isolated_and_both_amortize() {
        let fields = fields(64);
        let src = "m = u*v";
        let mut reg = SessionRegistry::new(DeviceProfile::intel_x5660(), EngineOptions::default());
        for _ in 0..3 {
            reg.run("a", &fusion(src), &fields).unwrap();
            reg.run("b", &fusion(src), &fields).unwrap();
        }
        for id in ["a", "b"] {
            let st = reg.stats(id).unwrap();
            assert_eq!(st.session.cycles, 3);
            assert_eq!(st.session.codegen_compiles, 1, "compiled once per tenant");
            assert_eq!(st.session.codegen_cached, 2);
            assert!(st.session.uploads_skipped > 0);
        }
        assert_eq!(reg.tenant_ids(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn quota_breach_is_typed_and_leak_free() {
        let n = 32 * 32 * 32;
        let fields = fields(n);
        let opts = EngineOptions {
            recovery: RecoveryPolicy::disabled(),
            ..EngineOptions::default()
        };
        let mut reg = SessionRegistry::new(DeviceProfile::intel_x5660(), opts);
        reg.set_quota("tiny", 16 * 1024);
        let err = reg
            .run("tiny", &fusion("m = u*v + u"), &fields)
            .unwrap_err();
        assert!(err.is_out_of_memory(), "expected OOM, got {err}");
        let st = reg.stats("tiny").unwrap();
        assert_eq!(st.in_use_bytes, 0, "failed request leaked device bytes");
        assert_eq!(st.quota_bytes, 16 * 1024);
        // A request that fits still succeeds afterwards.
        let small = fields_of(8);
        reg.run("tiny", &fusion("m = u+v"), &small).unwrap();
    }

    fn fields_of(n: usize) -> FieldSet {
        fields(n)
    }

    #[test]
    fn quota_breach_degrades_with_recovery_enabled() {
        let n = 32 * 32 * 32;
        let fields = fields(n);
        let opts = EngineOptions {
            recovery: RecoveryPolicy::resilient(),
            ..EngineOptions::default()
        };
        let mut reg = SessionRegistry::new(DeviceProfile::intel_x5660(), opts);
        reg.set_quota("t", 16 * 1024);
        let (_, report) = reg.run("t", &fusion("m = u*v + u"), &fields).unwrap();
        let rec = report.recovery.as_ref().expect("recovery record");
        assert!(rec.degraded, "expected a degraded completion under quota");
    }

    #[test]
    fn idle_eviction_releases_sessions_and_bytes() {
        let fields = fields(64);
        let mut reg = SessionRegistry::new(DeviceProfile::intel_x5660(), EngineOptions::default());
        reg.run("a", &fusion("m = u*v"), &fields).unwrap();
        reg.run("b", &fusion("m = u+v"), &fields).unwrap();
        assert_eq!(reg.len(), 2);
        // Nothing is idle long enough for a 1-hour TTL.
        assert!(reg.evict_idle(Duration::from_secs(3600)).is_empty());
        assert_eq!(reg.len(), 2);
        // A zero TTL evicts everyone, deterministically sorted.
        assert_eq!(reg.evict_idle(Duration::ZERO), vec!["a", "b"]);
        assert!(reg.is_empty());
        assert_eq!(reg.total_in_use_bytes(), 0);
        assert_eq!(reg.total_pooled_bytes(), 0);
        // Evicted tenants come back lazily on their next request.
        reg.run("a", &fusion("m = u*v"), &fields).unwrap();
        assert_eq!(reg.stats("a").unwrap().session.cycles, 1);
    }

    #[test]
    fn lru_eviction_picks_the_stalest_tenant() {
        let fields = fields(64);
        let mut reg = SessionRegistry::new(DeviceProfile::intel_x5660(), EngineOptions::default());
        reg.run("old", &fusion("m = u*v"), &fields).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        reg.run("new", &fusion("m = u+v"), &fields).unwrap();
        assert_eq!(reg.evict_lru().as_deref(), Some("old"));
        assert_eq!(reg.tenant_ids(), vec!["new".to_string()]);
        assert_eq!(reg.evict_lru().as_deref(), Some("new"));
        assert_eq!(reg.evict_lru(), None);
    }

    #[test]
    fn trim_pools_frees_parked_bytes_across_tenants() {
        let fields = fields(64);
        let mut reg = SessionRegistry::new(DeviceProfile::intel_x5660(), EngineOptions::default());
        // Transient output buffers are parked in the pool after each cycle.
        reg.run("a", &fusion("m = u*v"), &fields).unwrap();
        reg.run("b", &fusion("m = u+v"), &fields).unwrap();
        assert!(reg.total_pooled_bytes() > 0, "expected parked pool bytes");
        let freed = reg.trim_pools();
        assert!(freed > 0);
        assert_eq!(reg.total_pooled_bytes(), 0);
        // Sessions survive trimming; the next request still amortizes.
        reg.run("a", &fusion("m = u*v"), &fields).unwrap();
        assert_eq!(reg.stats("a").unwrap().session.codegen_cached, 1);
    }

    #[test]
    fn fired_cancel_token_aborts_and_leaks_nothing() {
        let fields = fields(64);
        let mut reg = SessionRegistry::new(DeviceProfile::intel_x5660(), EngineOptions::default());
        let tok = CancelToken::new();
        tok.cancel();
        reg.set_cancel("t", Some(tok));
        let err = reg.run("t", &fusion("m = u*v"), &fields).unwrap_err();
        assert!(err.is_cancelled(), "expected Cancelled, got {err}");
        assert!(!err.deadline_exceeded());
        let st = reg.stats("t").unwrap();
        assert_eq!(st.in_use_bytes, 0, "cancelled request leaked bytes");
        // Clearing the token lets the tenant run again.
        reg.set_cancel("t", None);
        reg.run("t", &fusion("m = u*v"), &fields).unwrap();
    }

    #[test]
    fn expired_deadline_aborts_as_deadline_exceeded() {
        let fields = fields(64);
        let mut reg = SessionRegistry::new(DeviceProfile::intel_x5660(), EngineOptions::default());
        let tok = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        reg.set_cancel("t", Some(tok));
        let err = reg.run("t", &fusion("m = u*v"), &fields).unwrap_err();
        assert!(err.is_cancelled());
        assert!(err.deadline_exceeded());
    }
}
