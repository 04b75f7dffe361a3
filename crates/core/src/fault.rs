//! Seeded fault injection for the fault-tolerant pipeline.
//!
//! A [`FaultPlan`] is a deterministic function of a `u64` seed: every
//! probe point in the pipeline asks [`FaultPlan::fires`] with a stable
//! string key (unit name, cache key, phase name…) and gets the same
//! answer on every run with the same seed — independent of thread
//! scheduling, iteration order, or how often the probe is reached. That
//! schedule independence is what makes the `tests/fault_injection.rs`
//! matrix reproducible on a multi-threaded pool.
//!
//! Probe sites ([`FaultSite`]):
//!
//! * `CacheRead` — a disk-cache read is served corrupted/torn, which
//!   the cache must degrade to a miss;
//! * `CacheWrite` — a disk-cache write attempt fails with an I/O error
//!   (optionally only the first `write_transient` attempts per key, to
//!   exercise the retry path);
//! * `PhasePanic` — a phase entry panics, exercising `catch_unwind`
//!   isolation;
//! * `AuditViolation` — a synthetic audit error is attached to a
//!   function's GCTD plan, forcing the mcc-fallback rung of the
//!   degradation ladder.
//!
//! Network-level probe sites, exercised by the `matc serve` daemon's
//! chaos harness (keys are per-connection/per-request serials, so one
//! seed reproduces one connection fate schedule):
//!
//! * `NetAccept` — an accepted connection is dropped before any byte is
//!   read (accept failure from the client's point of view);
//! * `NetDisconnect` — the connection is closed mid-frame, after the
//!   request was read but before any response byte is written;
//! * `NetStall` — a slow-loris read: the server stalls between reads of
//!   the request frame (bounded by its idle timeout);
//! * `NetTorn` — a torn response: only a prefix of the response frame
//!   is written before the connection is closed.
//!
//! Artifact-store probe sites, exercised by the crash-consistency
//! matrix over the fragment/manifest store (DESIGN.md §12; keys are
//! fragment/unit hashes, so one seed reproduces one corruption
//! schedule):
//!
//! * `StoreFragCorrupt` — a fragment is bit-flipped on its way to disk,
//!   so the embedded SHA-256 must catch it on read and quarantine it;
//! * `StoreTornManifest` — only a prefix of a unit manifest reaches
//!   disk (a torn write/rename), which integrity verification must
//!   degrade to a miss, never a hybrid unit;
//! * `StorePutCrash` — the writer "crashes" between committing its
//!   fragments and renaming the manifest: fragments land, the manifest
//!   never does, and a fresh process must see either the complete old
//!   unit or a clean miss;
//! * `StoreFull` — a durable write fails as if the disk were full
//!   (`ENOSPC`), which the store must degrade to memory-only caching
//!   with a single structured warning rather than an error.
//!
//! Plans are enabled via the `MATC_FAULTS` environment variable or the
//! `--faults` CLI flag, both taking the spec grammar of
//! [`FaultPlan::parse`].

use std::fmt;

/// Environment variable carrying a [`FaultPlan::parse`] spec.
pub const FAULTS_ENV: &str = "MATC_FAULTS";

/// A pipeline location where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Disk-cache read served corrupted (must degrade to a miss).
    CacheRead,
    /// Disk-cache write attempt fails with an I/O error.
    CacheWrite,
    /// Injected panic at a phase entry.
    PhasePanic,
    /// Synthetic storage-plan audit violation.
    AuditViolation,
    /// Accepted connection dropped before any byte is read.
    NetAccept,
    /// Connection closed mid-frame: request read, no response written.
    NetDisconnect,
    /// Slow-loris read: the server stalls between request-frame reads.
    NetStall,
    /// Torn response: only a prefix of the response frame is written.
    NetTorn,
    /// Store fragment bit-flipped on its way to disk (caught by the
    /// embedded SHA-256 on read, then quarantined).
    StoreFragCorrupt,
    /// Only a prefix of a unit manifest reaches disk (torn write).
    StoreTornManifest,
    /// Writer crash between fragment commit and manifest rename.
    StorePutCrash,
    /// Durable store write fails as if the disk were full (`ENOSPC`).
    StoreFull,
}

impl FaultSite {
    fn salt(self) -> u64 {
        match self {
            FaultSite::CacheRead => 0x9e37_79b9_7f4a_7c15,
            FaultSite::CacheWrite => 0xbf58_476d_1ce4_e5b9,
            FaultSite::PhasePanic => 0x94d0_49bb_1331_11eb,
            FaultSite::AuditViolation => 0x2545_f491_4f6c_dd1d,
            FaultSite::NetAccept => 0x6a09_e667_f3bc_c908,
            FaultSite::NetDisconnect => 0xbb67_ae85_84ca_a73b,
            FaultSite::NetStall => 0x3c6e_f372_fe94_f82b,
            FaultSite::NetTorn => 0xa54f_f53a_5f1d_36f1,
            FaultSite::StoreFragCorrupt => 0x510e_527f_ade6_82d1,
            FaultSite::StoreTornManifest => 0x9b05_688c_2b3e_6c1f,
            FaultSite::StorePutCrash => 0x5be0_cd19_137e_2179,
            FaultSite::StoreFull => 0x428a_2f98_d728_ae22,
        }
    }
}

/// A deterministic, seed-derived plan of which probe points fire.
///
/// Copyable so it can ride inside batch configuration; `fires` is pure,
/// so one plan can be shared by every worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed all decisions derive from.
    pub seed: u64,
    /// Percentage (0–100) of keyed cache reads served corrupted.
    pub cache_read_pct: u8,
    /// Percentage (0–100) of keyed cache writes that fail.
    pub cache_write_pct: u8,
    /// Percentage (0–100) of probed phase entries that panic.
    pub phase_panic_pct: u8,
    /// Percentage (0–100) of audited functions given a synthetic
    /// violation.
    pub audit_violation_pct: u8,
    /// For faulted cache writes: how many attempts per key fail before
    /// the write succeeds. `u8::MAX` means every attempt fails
    /// (persistent fault, e.g. a read-only cache dir).
    pub write_transient: u8,
    /// Percentage (0–100) of accepted connections dropped before any
    /// byte is read.
    pub net_accept_pct: u8,
    /// Percentage (0–100) of requests whose connection dies mid-frame
    /// (request read, no response written).
    pub net_disconnect_pct: u8,
    /// Percentage (0–100) of request frames read slow-loris style.
    pub net_stall_pct: u8,
    /// Percentage (0–100) of responses torn after a prefix.
    pub net_torn_pct: u8,
    /// Percentage (0–100) of store fragments bit-flipped on write.
    pub store_frag_corrupt_pct: u8,
    /// Percentage (0–100) of unit manifests torn after a prefix.
    pub store_torn_manifest_pct: u8,
    /// Percentage (0–100) of unit puts that crash between fragment
    /// commit and manifest rename.
    pub store_put_crash_pct: u8,
    /// Percentage (0–100) of durable store writes that fail as if the
    /// disk were full (`ENOSPC`).
    pub store_full_pct: u8,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled; compose with
    /// the builder methods to switch sites on.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            cache_read_pct: 0,
            cache_write_pct: 0,
            phase_panic_pct: 0,
            audit_violation_pct: 0,
            write_transient: u8::MAX,
            net_accept_pct: 0,
            net_disconnect_pct: 0,
            net_stall_pct: 0,
            net_torn_pct: 0,
            store_frag_corrupt_pct: 0,
            store_torn_manifest_pct: 0,
            store_put_crash_pct: 0,
            store_full_pct: 0,
        }
    }

    /// Derives a mixed plan from a seed alone: every 8th seed is a
    /// fault-free control (the matrix's byte-identity baseline rides
    /// inside the matrix itself), and the rest pick each site's rate
    /// from {0, 10, 30, 100} by the seed's hash bits — so a small seed
    /// range (the 50-case matrix) deterministically covers
    /// single-site, multi-site and fault-free configurations.
    pub fn from_seed(seed: u64) -> FaultPlan {
        if seed.is_multiple_of(8) {
            return FaultPlan::quiet(seed);
        }
        const RATES: [u8; 4] = [0, 10, 30, 100];
        let h = splitmix64(seed ^ 0x5bf0_3635_dcb2_9359);
        FaultPlan {
            cache_read_pct: RATES[(h & 3) as usize],
            cache_write_pct: RATES[((h >> 2) & 3) as usize],
            phase_panic_pct: RATES[((h >> 4) & 3) as usize],
            audit_violation_pct: RATES[((h >> 6) & 3) as usize],
            write_transient: match (h >> 8) & 3 {
                0 => u8::MAX, // persistent write failure
                k => k as u8, // 1–3 failed attempts, then success
            },
            // Network/store probes stay off: `from_seed` seeds the
            // pipeline matrix, whose artifacts are pinned per seed.
            ..FaultPlan::quiet(seed)
        }
    }

    /// Derives a network-chaos plan from a seed alone, for the serve
    /// chaos matrix: every 8th seed is a connection-fault-free control,
    /// and the rest pick each network site's rate from {0, 10, 30, 100}
    /// by the seed's hash bits, with two of every eight seeds also
    /// panicking phase entries so the matrix crosses connection faults
    /// with in-pipeline faults. Pipeline cache/audit faults stay off —
    /// the daemon under network chaos must serve *correct* artifacts,
    /// and this keeps the reference bytes seed-independent.
    pub fn net_from_seed(seed: u64) -> FaultPlan {
        if seed.is_multiple_of(8) {
            return FaultPlan::quiet(seed);
        }
        const RATES: [u8; 4] = [0, 10, 30, 100];
        let h = splitmix64(seed ^ 0x1f83_d9ab_fb41_bd6b);
        let mut plan = FaultPlan::quiet(seed);
        plan.net_accept_pct = RATES[(h & 3) as usize];
        plan.net_disconnect_pct = RATES[((h >> 2) & 3) as usize];
        plan.net_stall_pct = RATES[((h >> 4) & 3) as usize];
        plan.net_torn_pct = RATES[((h >> 6) & 3) as usize];
        if seed % 8 >= 6 {
            plan.phase_panic_pct = RATES[1 + ((h >> 8) & 1) as usize];
        }
        plan
    }

    /// Derives a store-chaos plan from a seed alone, for the artifact
    /// store's crash-consistency matrix: every 8th seed is a fault-free
    /// control, and the rest pick each store site's rate from
    /// {0, 10, 30, 100} by the seed's hash bits, with two of every
    /// eight seeds also tearing manifest and fragment reads so the
    /// matrix crosses write-side corruption with read-side corruption.
    /// Pipeline panic/audit faults stay off — the store matrix pins
    /// healed units byte-identical to the fault-free reference, which
    /// requires the *compiles* themselves to stay pristine.
    pub fn store_from_seed(seed: u64) -> FaultPlan {
        if seed.is_multiple_of(8) {
            return FaultPlan::quiet(seed);
        }
        const RATES: [u8; 4] = [0, 10, 30, 100];
        let h = splitmix64(seed ^ 0x7137_4491_23ef_65cd);
        let mut plan = FaultPlan::quiet(seed);
        plan.store_frag_corrupt_pct = RATES[(h & 3) as usize];
        plan.store_torn_manifest_pct = RATES[((h >> 2) & 3) as usize];
        plan.store_put_crash_pct = RATES[((h >> 4) & 3) as usize];
        if seed % 8 >= 6 {
            plan.cache_read_pct = RATES[1 + ((h >> 6) & 1) as usize];
        }
        plan
    }

    /// Sets the cache-read corruption rate (builder style).
    pub fn cache_reads(mut self, pct: u8) -> FaultPlan {
        self.cache_read_pct = pct.min(100);
        self
    }

    /// Sets the cache-write failure rate (builder style).
    pub fn cache_writes(mut self, pct: u8) -> FaultPlan {
        self.cache_write_pct = pct.min(100);
        self
    }

    /// Sets the phase-panic rate (builder style).
    pub fn panics(mut self, pct: u8) -> FaultPlan {
        self.phase_panic_pct = pct.min(100);
        self
    }

    /// Sets the synthetic audit-violation rate (builder style).
    pub fn audit_violations(mut self, pct: u8) -> FaultPlan {
        self.audit_violation_pct = pct.min(100);
        self
    }

    /// Sets how many write attempts per faulted key fail before
    /// succeeding; `u8::MAX` makes the fault persistent.
    pub fn transient(mut self, attempts: u8) -> FaultPlan {
        self.write_transient = attempts;
        self
    }

    /// Sets the accept-drop rate (builder style).
    pub fn net_accepts(mut self, pct: u8) -> FaultPlan {
        self.net_accept_pct = pct.min(100);
        self
    }

    /// Sets the slow-loris read-stall rate (builder style).
    pub fn net_stalls(mut self, pct: u8) -> FaultPlan {
        self.net_stall_pct = pct.min(100);
        self
    }

    /// Sets the torn-response rate (builder style).
    pub fn net_torn(mut self, pct: u8) -> FaultPlan {
        self.net_torn_pct = pct.min(100);
        self
    }

    /// Sets the fragment write-corruption rate (builder style).
    pub fn frag_corruptions(mut self, pct: u8) -> FaultPlan {
        self.store_frag_corrupt_pct = pct.min(100);
        self
    }

    /// Sets the torn-manifest rate (builder style).
    pub fn torn_manifests(mut self, pct: u8) -> FaultPlan {
        self.store_torn_manifest_pct = pct.min(100);
        self
    }

    /// Sets the crash-between-fragment-and-manifest rate (builder
    /// style).
    pub fn put_crashes(mut self, pct: u8) -> FaultPlan {
        self.store_put_crash_pct = pct.min(100);
        self
    }

    /// Sets the disk-full durable-write failure rate (builder style).
    pub fn store_fulls(mut self, pct: u8) -> FaultPlan {
        self.store_full_pct = pct.min(100);
        self
    }

    /// Whether any site has a non-zero rate.
    pub fn any_enabled(&self) -> bool {
        self.cache_read_pct > 0
            || self.cache_write_pct > 0
            || self.phase_panic_pct > 0
            || self.audit_violation_pct > 0
            || self.any_net_enabled()
            || self.any_store_enabled()
    }

    /// Whether any network probe site has a non-zero rate.
    pub fn any_net_enabled(&self) -> bool {
        self.net_accept_pct > 0
            || self.net_disconnect_pct > 0
            || self.net_stall_pct > 0
            || self.net_torn_pct > 0
    }

    /// Whether any artifact-store probe site has a non-zero rate.
    pub fn any_store_enabled(&self) -> bool {
        self.store_frag_corrupt_pct > 0
            || self.store_torn_manifest_pct > 0
            || self.store_put_crash_pct > 0
            || self.store_full_pct > 0
    }

    /// Whether the probe at `site` keyed by `key` fires. Deterministic
    /// in `(seed, site, key)` — never in call order or thread schedule.
    pub fn fires(&self, site: FaultSite, key: &str) -> bool {
        let pct = match site {
            FaultSite::CacheRead => self.cache_read_pct,
            FaultSite::CacheWrite => self.cache_write_pct,
            FaultSite::PhasePanic => self.phase_panic_pct,
            FaultSite::AuditViolation => self.audit_violation_pct,
            FaultSite::NetAccept => self.net_accept_pct,
            FaultSite::NetDisconnect => self.net_disconnect_pct,
            FaultSite::NetStall => self.net_stall_pct,
            FaultSite::NetTorn => self.net_torn_pct,
            FaultSite::StoreFragCorrupt => self.store_frag_corrupt_pct,
            FaultSite::StoreTornManifest => self.store_torn_manifest_pct,
            FaultSite::StorePutCrash => self.store_put_crash_pct,
            FaultSite::StoreFull => self.store_full_pct,
        };
        if pct == 0 {
            return false;
        }
        if pct >= 100 {
            return true;
        }
        let h = splitmix64(self.seed ^ site.salt() ^ fnv1a(key));
        (h % 100) < pct as u64
    }

    /// For a faulted cache write: whether the `attempt`-th try (0-based)
    /// still fails. Combines [`FaultPlan::fires`] at
    /// [`FaultSite::CacheWrite`] with the transient count, so retry
    /// loops can distinguish transient from persistent failures.
    pub fn write_attempt_fails(&self, key: &str, attempt: u32) -> bool {
        if !self.fires(FaultSite::CacheWrite, key) {
            return false;
        }
        self.write_transient == u8::MAX || attempt < self.write_transient as u32
    }

    /// Parses a fault spec.
    ///
    /// Grammar: either a bare seed (`"42"`) or a comma-separated
    /// `key=value` list starting from [`FaultPlan::from_seed`] defaults:
    /// `seed=42,read=10,write=30,panic=0,audit=100,transient=2`.
    /// `transient=max` makes write faults persistent. Network probe
    /// rates take the keys `accept=`, `disconnect=`, `stall=` and
    /// `torn=`; artifact-store probe rates take `fragcorrupt=`,
    /// `manifesttorn=`, `putcrash=` and `storefull=` (all default 0).
    /// A spec without `seed` is an error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown keys, out-of-range
    /// rates, or a missing seed.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if let Ok(seed) = spec.parse::<u64>() {
            return Ok(FaultPlan::from_seed(seed));
        }
        let mut seed: Option<u64> = None;
        let mut overrides: Vec<(String, String)> = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((k, v)) = part.split_once('=') else {
                return Err(format!("fault spec item `{part}` is not key=value"));
            };
            if k == "seed" {
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("bad fault seed `{v}`"))?,
                );
            } else {
                overrides.push((k.to_string(), v.to_string()));
            }
        }
        let Some(seed) = seed else {
            return Err("fault spec needs seed=N (or a bare seed)".to_string());
        };
        let mut plan = FaultPlan::from_seed(seed);
        for (k, v) in overrides {
            let pct = |v: &str| -> Result<u8, String> {
                let n: u8 = v.parse().map_err(|_| format!("bad fault rate `{v}`"))?;
                if n > 100 {
                    return Err(format!("fault rate `{v}` exceeds 100"));
                }
                Ok(n)
            };
            match k.as_str() {
                "read" => plan.cache_read_pct = pct(&v)?,
                "write" => plan.cache_write_pct = pct(&v)?,
                "panic" => plan.phase_panic_pct = pct(&v)?,
                "audit" => plan.audit_violation_pct = pct(&v)?,
                "accept" => plan.net_accept_pct = pct(&v)?,
                "disconnect" => plan.net_disconnect_pct = pct(&v)?,
                "stall" => plan.net_stall_pct = pct(&v)?,
                "torn" => plan.net_torn_pct = pct(&v)?,
                "fragcorrupt" => plan.store_frag_corrupt_pct = pct(&v)?,
                "manifesttorn" => plan.store_torn_manifest_pct = pct(&v)?,
                "putcrash" => plan.store_put_crash_pct = pct(&v)?,
                "storefull" => plan.store_full_pct = pct(&v)?,
                "transient" => {
                    plan.write_transient = if v == "max" {
                        u8::MAX
                    } else {
                        v.parse::<u8>()
                            .map_err(|_| format!("bad transient count `{v}`"))?
                    }
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Reads a plan from the `MATC_FAULTS` environment variable.
    ///
    /// # Errors
    ///
    /// Returns `Ok(None)` when the variable is unset or empty, and the
    /// parse error when it is set but malformed.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var(FAULTS_ENV) {
            Ok(v) if !v.trim().is_empty() => FaultPlan::parse(&v).map(Some),
            _ => Ok(None),
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},read={},write={},panic={},audit={},transient={}",
            self.seed,
            self.cache_read_pct,
            self.cache_write_pct,
            self.phase_panic_pct,
            self.audit_violation_pct,
            if self.write_transient == u8::MAX {
                "max".to_string()
            } else {
                self.write_transient.to_string()
            }
        )?;
        if self.any_net_enabled() {
            write!(
                f,
                ",accept={},disconnect={},stall={},torn={}",
                self.net_accept_pct, self.net_disconnect_pct, self.net_stall_pct, self.net_torn_pct
            )?;
        }
        if self.any_store_enabled() {
            write!(
                f,
                ",fragcorrupt={},manifesttorn={},putcrash={},storefull={}",
                self.store_frag_corrupt_pct,
                self.store_torn_manifest_pct,
                self.store_put_crash_pct,
                self.store_full_pct
            )?;
        }
        Ok(())
    }
}

/// SplitMix64 — the standard 64-bit finalizer-style mixer. Public so
/// the cache's retry jitter and the deterministic simulation's RNG can
/// reuse it.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the key string (stable across platforms and runs).
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_schedule_independent() {
        let p = FaultPlan::from_seed(7).cache_reads(50);
        let first: Vec<bool> = (0..64)
            .map(|i| p.fires(FaultSite::CacheRead, &format!("unit{i}")))
            .collect();
        // Re-query in reverse order: same answers per key.
        for i in (0..64).rev() {
            assert_eq!(
                p.fires(FaultSite::CacheRead, &format!("unit{i}")),
                first[i as usize]
            );
        }
        assert!(first.iter().any(|b| *b));
        assert!(first.iter().any(|b| !*b));
    }

    #[test]
    fn sites_are_independent() {
        let p = FaultPlan::quiet(3).panics(100);
        assert!(p.fires(FaultSite::PhasePanic, "x"));
        assert!(!p.fires(FaultSite::CacheRead, "x"));
        assert!(!p.fires(FaultSite::CacheWrite, "x"));
        assert!(!p.fires(FaultSite::AuditViolation, "x"));
    }

    #[test]
    fn transient_write_faults_clear_after_n_attempts() {
        let p = FaultPlan::quiet(1).cache_writes(100).transient(2);
        assert!(p.write_attempt_fails("k", 0));
        assert!(p.write_attempt_fails("k", 1));
        assert!(!p.write_attempt_fails("k", 2));
        let persistent = p.transient(u8::MAX);
        assert!(persistent.write_attempt_fails("k", 1000));
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let p = FaultPlan::parse("seed=9,read=10,write=0,panic=100,audit=5,transient=max").unwrap();
        assert_eq!(p.seed, 9);
        assert_eq!(p.cache_read_pct, 10);
        assert_eq!(p.phase_panic_pct, 100);
        assert_eq!(p.write_transient, u8::MAX);
        let rendered = p.to_string();
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), p);

        assert_eq!(FaultPlan::parse("42").unwrap(), FaultPlan::from_seed(42));
        assert!(FaultPlan::parse("read=10").is_err(), "seed is required");
        assert!(FaultPlan::parse("seed=1,bogus=2").is_err());
        assert!(FaultPlan::parse("seed=1,read=101").is_err());
    }

    #[test]
    fn pipeline_seed_mixture_never_enables_network_probes() {
        // `from_seed` feeds the pinned pipeline fault matrix; adding the
        // network sites must not perturb any existing seed's plan.
        for seed in 0..200 {
            let p = FaultPlan::from_seed(seed);
            assert!(!p.any_net_enabled(), "seed {seed} gained a net fault");
        }
    }

    #[test]
    fn pipeline_and_net_mixtures_never_enable_store_probes() {
        // Both pinned matrices predate the store sites; adding them
        // must not perturb any existing seed's plan.
        for seed in 0..200 {
            assert!(
                !FaultPlan::from_seed(seed).any_store_enabled(),
                "from_seed {seed} gained a store fault"
            );
            assert!(
                !FaultPlan::net_from_seed(seed).any_store_enabled(),
                "net_from_seed {seed} gained a store fault"
            );
        }
    }

    #[test]
    fn store_seed_mixture_covers_all_corruption_fates() {
        let plans: Vec<FaultPlan> = (0..50).map(FaultPlan::store_from_seed).collect();
        assert!(plans.iter().any(|p| !p.any_enabled()), "some seeds quiet");
        assert!(plans.iter().any(|p| p.store_frag_corrupt_pct > 0));
        assert!(plans.iter().any(|p| p.store_torn_manifest_pct > 0));
        assert!(plans.iter().any(|p| p.store_put_crash_pct > 0));
        assert!(
            plans
                .iter()
                .any(|p| p.cache_read_pct > 0 && p.any_store_enabled()),
            "some seeds cross write-side with read-side corruption"
        );
        assert!(
            plans
                .iter()
                .all(|p| p.phase_panic_pct == 0 && p.audit_violation_pct == 0),
            "store matrix keeps the compiles themselves pristine"
        );
    }

    #[test]
    fn store_spec_keys_parse_and_round_trip() {
        let p = FaultPlan::parse("seed=4,fragcorrupt=10,manifesttorn=30,putcrash=100").unwrap();
        assert_eq!(p.store_frag_corrupt_pct, 10);
        assert_eq!(p.store_torn_manifest_pct, 30);
        assert_eq!(p.store_put_crash_pct, 100);
        assert!(p.any_store_enabled() && p.any_enabled());
        let rendered = p.to_string();
        assert!(
            rendered.contains("putcrash=100"),
            "store rates render: {rendered}"
        );
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), p);
        assert!(FaultPlan::parse("seed=1,fragcorrupt=101").is_err());
        assert!(
            !FaultPlan::quiet(3).to_string().contains("fragcorrupt="),
            "all-zero store rates stay out of the rendering"
        );
    }

    #[test]
    fn store_full_site_parses_and_stays_out_of_seed_mixtures() {
        let p = FaultPlan::parse("seed=5,storefull=100").unwrap();
        assert_eq!(p.store_full_pct, 100);
        assert!(p.fires(FaultSite::StoreFull, "cu0"));
        assert!(!p.fires(FaultSite::StorePutCrash, "cu0"));
        let rendered = p.to_string();
        assert!(rendered.contains("storefull=100"), "renders: {rendered}");
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), p);
        // The pinned store matrix predates this site: no seed may gain it.
        for seed in 0..200 {
            assert_eq!(FaultPlan::store_from_seed(seed).store_full_pct, 0);
        }
    }

    #[test]
    fn store_sites_are_independent_of_pipeline_sites() {
        let p = FaultPlan::quiet(9).put_crashes(100);
        assert!(p.fires(FaultSite::StorePutCrash, "deadbeef"));
        assert!(!p.fires(FaultSite::StoreFragCorrupt, "deadbeef"));
        assert!(!p.fires(FaultSite::StoreTornManifest, "deadbeef"));
        assert!(!p.fires(FaultSite::CacheWrite, "deadbeef"));
        let partial = FaultPlan::quiet(9).frag_corruptions(50);
        let fates: Vec<bool> = (0..64)
            .map(|i| partial.fires(FaultSite::StoreFragCorrupt, &format!("frag{i}")))
            .collect();
        assert!(fates.iter().any(|b| *b) && fates.iter().any(|b| !*b));
    }

    #[test]
    fn net_seed_mixture_covers_all_connection_fates() {
        let plans: Vec<FaultPlan> = (0..50).map(FaultPlan::net_from_seed).collect();
        assert!(plans.iter().any(|p| !p.any_enabled()), "some seeds quiet");
        assert!(plans.iter().any(|p| p.net_accept_pct > 0));
        assert!(plans.iter().any(|p| p.net_disconnect_pct > 0));
        assert!(plans.iter().any(|p| p.net_stall_pct > 0));
        assert!(plans.iter().any(|p| p.net_torn_pct > 0));
        assert!(
            plans
                .iter()
                .any(|p| p.phase_panic_pct > 0 && p.any_net_enabled()),
            "some seeds cross net faults with unit panics"
        );
        assert!(
            plans.iter().all(|p| p.cache_read_pct == 0
                && p.cache_write_pct == 0
                && p.audit_violation_pct == 0),
            "net matrix keeps cache/audit probes off"
        );
    }

    #[test]
    fn net_spec_keys_parse_and_round_trip() {
        let p = FaultPlan::parse("seed=4,accept=10,disconnect=30,stall=5,torn=100").unwrap();
        assert_eq!(p.net_accept_pct, 10);
        assert_eq!(p.net_disconnect_pct, 30);
        assert_eq!(p.net_stall_pct, 5);
        assert_eq!(p.net_torn_pct, 100);
        assert!(p.any_net_enabled() && p.any_enabled());
        let rendered = p.to_string();
        assert!(
            rendered.contains("torn=100"),
            "net rates render: {rendered}"
        );
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), p);
        assert!(FaultPlan::parse("seed=1,stall=101").is_err());

        let quiet = FaultPlan::quiet(3);
        assert!(
            !quiet.to_string().contains("accept="),
            "all-zero net rates stay out of the rendering"
        );
        assert_eq!(FaultPlan::parse(&quiet.to_string()).unwrap(), quiet);
    }

    #[test]
    fn net_sites_are_independent_of_pipeline_sites() {
        let p = FaultPlan::quiet(9).net_torn(100);
        assert!(p.fires(FaultSite::NetTorn, "conn3/req1"));
        assert!(!p.fires(FaultSite::NetAccept, "conn3/req1"));
        assert!(!p.fires(FaultSite::PhasePanic, "conn3/req1"));
        let partial = FaultPlan::quiet(9).net_stalls(50);
        let fates: Vec<bool> = (0..64)
            .map(|i| partial.fires(FaultSite::NetStall, &format!("conn{i}")))
            .collect();
        assert!(fates.iter().any(|b| *b) && fates.iter().any(|b| !*b));
    }

    #[test]
    fn seed_mixture_covers_quiet_and_noisy_plans() {
        let plans: Vec<FaultPlan> = (0..50).map(FaultPlan::from_seed).collect();
        assert!(plans.iter().any(|p| !p.any_enabled()), "some seeds quiet");
        assert!(
            plans.iter().any(|p| p.phase_panic_pct > 0),
            "some seeds panic"
        );
        assert!(
            plans.iter().any(|p| p.audit_violation_pct > 0),
            "some seeds inject audit violations"
        );
        assert!(
            plans
                .iter()
                .any(|p| p.cache_write_pct > 0 && p.write_transient != u8::MAX),
            "some seeds exercise the transient-retry path"
        );
    }
}
