//! Crash-safe, content-addressed artifact store for batch compilation
//! (DESIGN.md §12).
//!
//! A compilation unit's cache key is the SHA-256 digest of its source
//! text *and* the complete option set (see [`options_fingerprint`]) —
//! two compilations agree on the key iff they would produce identical
//! artifacts, so a hit can serve the stored [`Artifact`] (emitted C,
//! plan rendering, audit findings, size metrics) without running any
//! pipeline phase. Content-addressing is additionally split to
//! **per-function fragments** ([`Fragment`]: one function's emitted C
//! body, plan rendering, audit findings and metric deltas), so a warm
//! recompile after a single-function edit reuses every untouched
//! fragment instead of recompiling the whole unit.
//!
//! The memory tier also keeps one front-half memo per unit (its type,
//! `matc_vm::FrontMemo`, belongs to the compile pipeline): each
//! function's optimized SSA IR from the last compile, which the next
//! compile of the unit reuses for every function whose inputs did not
//! change. It is never written to disk.
//!
//! The store is two-level: an in-memory map shared by the batch
//! workers, and an optional on-disk layer (`--cache-dir`) that multiple
//! OS processes (`matc batch` runs, `matc serve` daemons) may share:
//!
//! * `units/<hex>.man` — one unit **manifest** per artifact, stitching
//!   the unit's fragment set to its composed artifact;
//! * `frags/<hex>.frag` — content-addressed per-function fragments;
//! * `corrupt/` — quarantined files that failed integrity verification;
//! * `store.lease` — an advisory owner-pid lease serializing manifest
//!   commits across processes (stale leases of dead owners are stolen).
//!
//! Every manifest and fragment carries an embedded SHA-256 over its
//! payload, verified on read: a torn, truncated or bit-flipped file is
//! **quarantined** to `corrupt/` (moved aside once, counted in stats,
//! never silently reused) and the unit is transparently recompiled —
//! the store heals itself instead of erroring. A unit commit is
//! crash-safe by ordering: fragments are written and fsynced first,
//! then the manifest is published by an atomic temp-file + rename — a
//! crash at any point leaves either the old unit or a clean miss
//! visible, never a hybrid (fragments without a manifest are harmless:
//! they are content-addressed and only reachable through keys that
//! prove their contents).
//!
//! Everything here is `std`-only: the SHA-256 implementation below is
//! the FIPS 180-4 algorithm transcribed directly (checked against the
//! standard test vectors), because the build environment is offline and
//! the workspace takes no external dependencies.

use std::any::Any;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::coloring::ColoringStrategy;
use crate::fault::{FaultPlan, FaultSite};
use crate::isolate::lock_recover;
use crate::plan::GctdOptions;

// ---------------------------------------------------------------------
// SHA-256 (FIPS 180-4)
// ---------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes, returning the 32-byte digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Length goes in directly: buf_len is 56 and compress fires at 64.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

// ---------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------

/// A 256-bit content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey([u8; 32]);

impl CacheKey {
    /// Derives the key of a compilation unit: a digest over a versioned,
    /// length-prefixed stream of the option fingerprint and every source
    /// file. Length prefixes make the encoding injective — no two
    /// distinct `(fingerprint, sources)` inputs share a stream. The
    /// version tag (`matc-cache-v5`) names the emitted C's interface
    /// to the `mrt` runtime: a store written under `v1` holds C that
    /// dispatches ops by name string, which no longer links against
    /// `mrt.h`; one written under `v2` holds recursive functions
    /// without their call-depth guard, one written under `v3` guards
    /// only functions on a call-graph cycle, where every frame now
    /// counts, and one written under `v4` calls `mrt_rdiv`, which
    /// `mrt.h` no longer declares; so those entries must miss.
    pub fn compute<'a>(sources: impl IntoIterator<Item = &'a str>, fingerprint: &str) -> CacheKey {
        let mut h = Sha256::new();
        h.update(b"matc-cache-v5\0");
        h.update(&(fingerprint.len() as u64).to_le_bytes());
        h.update(fingerprint.as_bytes());
        for src in sources {
            h.update(&(src.len() as u64).to_le_bytes());
            h.update(src.as_bytes());
        }
        CacheKey(h.finish())
    }

    /// Derives a key in a caller-chosen domain: a digest over the
    /// domain tag and a length-prefixed stream of `parts`. Per-function
    /// fragment keys use domain `"matc-frag-v5"`, where the parts are
    /// the option fingerprint, the probes flag and one byte stream
    /// holding the canonical walk of the function's optimized IR
    /// (`FuncIr::encode_canonical`) followed by the canonical walk of
    /// its inference facts (`ProgramTypes::encode_canonical_facts`).
    /// Domain separation keeps fragment keys from ever colliding with
    /// unit keys.
    pub fn compute_parts<P: AsRef<[u8]>>(
        domain: &str,
        parts: impl IntoIterator<Item = P>,
    ) -> CacheKey {
        let mut h = Sha256::new();
        h.update(domain.as_bytes());
        h.update(&[0]);
        for p in parts {
            let p = p.as_ref();
            h.update(&(p.len() as u64).to_le_bytes());
            h.update(p);
        }
        CacheKey(h.finish())
    }

    /// Lower-case hex rendering (the on-disk file stem).
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

/// Canonical, versioned rendering of every option that can change the
/// compiler's output. **Every field of [`GctdOptions`] must appear
/// here**; dropping one would let two differently-configured
/// compilations collide on one cache key (guarded by
/// `tests/plan_audit.rs`).
pub fn options_fingerprint(o: &GctdOptions) -> String {
    let coloring = match o.coloring {
        ColoringStrategy::LexicalGreedy => "lexical".to_string(),
        ColoringStrategy::SizeOrderedGreedy => "size".to_string(),
        ColoringStrategy::Exhaustive { max_nodes } => format!("exhaustive:{max_nodes}"),
    };
    format!(
        "v1;coalesce={};opsem={};phi={};symbolic={};coloring={}",
        u8::from(o.coalesce),
        u8::from(o.interference.operator_semantics),
        u8::from(o.interference.phi_coalescing),
        u8::from(o.symbolic_criterion),
        coloring
    )
}

// ---------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------

/// Everything a batch run needs to serve a unit without recompiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// The emitted C translation.
    pub c_code: String,
    /// The storage-plan rendering (`matc plan` format).
    pub plan_text: String,
    /// Audit + lint findings as JSON (`Diagnostics::to_json`).
    pub audit_json: String,
    /// Numeric metrics snapshot (sizes, counts — no timings), used to
    /// refill `UnitMetrics` on a cache hit.
    pub meta: BTreeMap<String, u64>,
}

const ARTIFACT_MAGIC: &str = "matc-artifact v1";

impl Artifact {
    /// A metadata value, zero when absent.
    pub fn meta_value(&self, key: &str) -> u64 {
        self.meta.get(key).copied().unwrap_or(0)
    }

    /// Error-severity audit findings recorded for this artifact.
    pub fn audit_errors(&self) -> u64 {
        self.meta_value("audit_errors")
    }

    /// Serializes to the on-disk format: a magic line, then
    /// length-prefixed sections (`section <name> <bytes>`), with the
    /// metadata map as `key value` lines in the `meta` section.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(ARTIFACT_MAGIC.as_bytes());
        out.push(b'\n');
        write_sections(
            &mut out,
            [
                ("c", self.c_code.as_str()),
                ("plan", self.plan_text.as_str()),
                ("audit", self.audit_json.as_str()),
            ],
            &self.meta,
        );
        out
    }

    /// Parses the on-disk format; any structural defect is an error (the
    /// cache treats it as a miss).
    pub fn from_bytes(bytes: &[u8]) -> Result<Artifact, String> {
        let mut rest = bytes;
        let magic = take_line(&mut rest).ok_or("missing magic")?;
        if magic != ARTIFACT_MAGIC.as_bytes() {
            return Err("bad magic".to_string());
        }
        let ([c_code, plan_text, audit_json], meta) = read_sections(rest, ["c", "plan", "audit"])?;
        Ok(Artifact {
            c_code,
            plan_text,
            audit_json,
            meta,
        })
    }
}

/// Appends the section payload artifacts and fragments share: one
/// `section <name> <len>` block per text, then a `meta` section of
/// `key value` lines.
fn write_sections(out: &mut Vec<u8>, texts: [(&str, &str); 3], meta: &BTreeMap<String, u64>) {
    let mut meta_text = String::new();
    for (k, v) in meta {
        meta_text.push_str(&format!("{k} {v}\n"));
    }
    for (name, body) in texts.into_iter().chain([("meta", meta_text.as_str())]) {
        out.extend_from_slice(format!("section {name} {}\n", body.len()).as_bytes());
        out.extend_from_slice(body.as_bytes());
        out.push(b'\n');
    }
}

/// Parses a [`write_sections`] payload, returning the texts named in
/// `names` (in that order) and the `meta` map. Unknown sections are
/// ignored; a missing one is an error.
fn read_sections(
    mut rest: &[u8],
    names: [&str; 3],
) -> Result<([String; 3], BTreeMap<String, u64>), String> {
    let mut sections: BTreeMap<String, String> = BTreeMap::new();
    while !rest.is_empty() {
        let header = take_line(&mut rest).ok_or("truncated section header")?;
        let header = std::str::from_utf8(header).map_err(|_| "non-utf8 header")?;
        let mut parts = header.split(' ');
        let (kw, name, len) = (parts.next(), parts.next(), parts.next());
        if kw != Some("section") || parts.next().is_some() {
            return Err(format!("bad section header: {header}"));
        }
        let name = name.ok_or("missing section name")?;
        let len: usize = len
            .and_then(|l| l.parse().ok())
            .ok_or("bad section length")?;
        // `<= len` rather than `< len + 1`: a crafted length of
        // usize::MAX must read as truncation, not overflow.
        if rest.len() <= len || rest[len] != b'\n' {
            return Err(format!("truncated section {name}"));
        }
        let body = std::str::from_utf8(&rest[..len]).map_err(|_| "non-utf8 section")?;
        sections.insert(name.to_string(), body.to_string());
        rest = &rest[len + 1..];
    }
    let mut get = |k: &str| sections.remove(k).ok_or(format!("missing section {k}"));
    let texts = [get(names[0])?, get(names[1])?, get(names[2])?];
    let mut meta = BTreeMap::new();
    for line in get("meta")?.lines() {
        let (k, v) = line.split_once(' ').ok_or("bad meta line")?;
        let v: u64 = v.parse().map_err(|_| "bad meta value")?;
        meta.insert(k.to_string(), v);
    }
    Ok((texts, meta))
}

fn take_line<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let pos = rest.iter().position(|b| *b == b'\n')?;
    let line = &rest[..pos];
    *rest = &rest[pos + 1..];
    Some(line)
}

// ---------------------------------------------------------------------
// Fragments
// ---------------------------------------------------------------------

/// One function's share of a unit artifact: everything a warm recompile
/// needs to skip that function's plan / audit / SSA-inversion / codegen
/// work entirely. Fragments are content-addressed by a digest over the
/// option fingerprint and the canonical walks of the function's
/// optimized IR and inference facts ([`CacheKey::compute_parts`]), so
/// equal keys imply equal pipeline inputs — and therefore equal
/// outputs, which is what makes reuse sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// The function's emitted C body (one `emit_function` text block).
    pub body: String,
    /// The function's storage-plan rendering (`matc plan` section).
    pub plan_text: String,
    /// The function's audit findings, wire-serialized
    /// (`Diagnostics::to_wire`).
    pub findings: String,
    /// Per-function metric deltas (plan stats, interference counts,
    /// audit edges — no timings), summed into `UnitMetrics` on reuse.
    pub meta: BTreeMap<String, u64>,
}

const FRAGMENT_MAGIC: &str = "matc-frag v1";
const MANIFEST_MAGIC: &str = "matc-manifest v1";

impl Fragment {
    /// Serializes to the on-disk format: magic line, embedded SHA-256
    /// over the payload, then the payload sections (like [`Artifact`]'s).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        write_sections(
            &mut payload,
            [
                ("body", self.body.as_str()),
                ("plan", self.plan_text.as_str()),
                ("findings", self.findings.as_str()),
            ],
            &self.meta,
        );
        seal(FRAGMENT_MAGIC, &payload)
    }

    /// Parses and integrity-verifies the on-disk format; any structural
    /// defect or digest mismatch is an error (the store quarantines the
    /// file).
    pub fn from_bytes(bytes: &[u8]) -> Result<Fragment, String> {
        let rest = unseal(FRAGMENT_MAGIC, bytes)?;
        let ([body, plan_text, findings], meta) =
            read_sections(rest, ["body", "plan", "findings"])?;
        Ok(Fragment {
            body,
            plan_text,
            findings,
            meta,
        })
    }
}

/// Wraps `payload` with a magic line and an embedded SHA-256:
/// `<magic>\nsha256 <hex>\n<payload>`. The digest covers exactly the
/// payload bytes, so any torn, truncated or bit-flipped byte after the
/// header fails verification on read.
fn seal(magic: &str, payload: &[u8]) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update(payload);
    let digest = h.finish();
    let mut out = Vec::with_capacity(payload.len() + 80);
    out.extend_from_slice(magic.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(b"sha256 ");
    for b in digest {
        out.extend_from_slice(format!("{b:02x}").as_bytes());
    }
    out.push(b'\n');
    out.extend_from_slice(payload);
    out
}

/// Verifies a [`seal`]ed document, returning the payload slice.
fn unseal<'a>(magic: &str, bytes: &'a [u8]) -> Result<&'a [u8], String> {
    let mut rest = bytes;
    let got_magic = take_line(&mut rest).ok_or("missing magic")?;
    if got_magic != magic.as_bytes() {
        return Err("bad magic".to_string());
    }
    let sha_line = take_line(&mut rest).ok_or("missing sha256 line")?;
    let sha_line = std::str::from_utf8(sha_line).map_err(|_| "non-utf8 sha256 line")?;
    let hex = sha_line
        .strip_prefix("sha256 ")
        .ok_or("bad sha256 line")?
        .trim();
    let mut h = Sha256::new();
    h.update(rest);
    let digest = h.finish();
    let mut want = String::with_capacity(64);
    for b in digest {
        want.push_str(&format!("{b:02x}"));
    }
    if hex != want {
        return Err("sha256 mismatch (corrupt or torn file)".to_string());
    }
    Ok(rest)
}

/// A decoded unit manifest: the composed artifact plus the hex keys of
/// the fragments it was stitched from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The composed unit artifact.
    pub artifact: Artifact,
    /// Hex keys of the per-function fragments the unit was built from
    /// (empty for units cached whole, e.g. by older writers or the
    /// non-incremental path).
    pub frags: Vec<String>,
}

impl Manifest {
    /// Serializes with the embedded integrity digest.
    pub fn to_bytes(&self) -> Vec<u8> {
        let artifact = self.artifact.to_bytes();
        let mut payload = Vec::new();
        payload.extend_from_slice(format!("frags {}\n", self.frags.len()).as_bytes());
        for f in &self.frags {
            payload.extend_from_slice(f.as_bytes());
            payload.push(b'\n');
        }
        payload.extend_from_slice(format!("artifact {}\n", artifact.len()).as_bytes());
        payload.extend_from_slice(&artifact);
        seal(MANIFEST_MAGIC, &payload)
    }

    /// Parses and integrity-verifies a manifest.
    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, String> {
        let mut rest = unseal(MANIFEST_MAGIC, bytes)?;
        let header = take_line(&mut rest).ok_or("missing frags header")?;
        let header = std::str::from_utf8(header).map_err(|_| "non-utf8 frags header")?;
        let n: usize = header
            .strip_prefix("frags ")
            .and_then(|l| l.parse().ok())
            .ok_or("bad frags header")?;
        if n > 1 << 20 {
            return Err("implausible fragment count".to_string());
        }
        let mut frags = Vec::with_capacity(n);
        for _ in 0..n {
            let line = take_line(&mut rest).ok_or("truncated fragment list")?;
            let line = std::str::from_utf8(line).map_err(|_| "non-utf8 fragment key")?;
            if line.len() != 64 || !line.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("bad fragment key `{line}`"));
            }
            frags.push(line.to_string());
        }
        let header = take_line(&mut rest).ok_or("missing artifact header")?;
        let header = std::str::from_utf8(header).map_err(|_| "non-utf8 artifact header")?;
        let len: usize = header
            .strip_prefix("artifact ")
            .and_then(|l| l.parse().ok())
            .ok_or("bad artifact header")?;
        if rest.len() != len {
            return Err("artifact length mismatch".to_string());
        }
        let artifact = Artifact::from_bytes(rest)?;
        Ok(Manifest { artifact, frags })
    }
}

// ---------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------

/// How many times a failed disk write is attempted before the disk
/// layer is declared unusable (transient faults — a busy filesystem, an
/// injected [`FaultSite::CacheWrite`] with a finite transient count —
/// clear within the retries; persistent ones degrade the cache).
const WRITE_ATTEMPTS: u32 = 3;

/// Hard cap on the *total* time one `put` may spend sleeping between
/// write retries. Under the batch pool — and more so under `matc
/// serve`, where a write retry sits on a request's latency path — a
/// doomed write must degrade the disk layer quickly rather than stack
/// up sleeps.
const WRITE_BACKOFF_CAP: Duration = Duration::from_millis(20);

/// The backoff to sleep before retry `attempt` (1-based), or `None`
/// when `elapsed` (total time already spent in this key's retry loop)
/// plus the delay would blow [`WRITE_BACKOFF_CAP`] — the caller then
/// stops retrying.
///
/// The delay is an exponential base (1 ms, 2 ms, …) plus a
/// deterministic jitter of 0–100% of the base derived from the key
/// hash: workers that fail on *different* keys at the same instant
/// desynchronize instead of re-colliding in lockstep, while the same
/// key retries on a reproducible schedule.
fn backoff_delay(key: &str, attempt: u32, elapsed: Duration) -> Option<Duration> {
    let base_micros = 1_000u64 << (attempt.saturating_sub(1)).min(10);
    let h = crate::fault::splitmix64(crate::fault::fnv1a(key) ^ u64::from(attempt));
    let jitter_micros = h % (base_micros + 1);
    let delay = Duration::from_micros(base_micros + jitter_micros);
    if elapsed + delay > WRITE_BACKOFF_CAP {
        None
    } else {
        Some(delay)
    }
}

/// How long an acquirer polls a held lease before proceeding without
/// it. The lease is advisory — manifest publishes are atomic renames
/// either way — so contention must never block a compile for long.
const LEASE_RETRY: Duration = Duration::from_millis(25);

/// A lease file untouched for this long is presumed abandoned on
/// platforms where the owner pid can't be probed (on Linux, a dead
/// owner is detected immediately via `/proc`).
const LEASE_STALE: Duration = Duration::from_secs(2);

/// An acquired owner-pid lease on the store (`store.lease`), released
/// on drop. Serializes manifest commits across OS processes sharing one
/// cache directory; a crashed owner's lease is stolen once it is
/// provably stale.
struct Lease {
    path: PathBuf,
}

impl Lease {
    /// Tries to take the lease, stealing stale ones. Returns `None`
    /// after [`LEASE_RETRY`] of live contention — the caller proceeds
    /// unleased (commits stay safe; they're atomic renames).
    fn acquire(dir: &Path) -> Option<Lease> {
        let path = dir.join("store.lease");
        let start = Instant::now();
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use std::io::Write as _;
                    let _ = write!(f, "{}", std::process::id());
                    let _ = f.sync_all();
                    return Some(Lease { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if lease_is_stale(&path) {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                }
                Err(_) => return None,
            }
            if start.elapsed() > LEASE_RETRY {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether a held lease provably belongs to nobody: unparseable owner,
/// a dead owner pid (Linux `/proc` probe), or an untouched file past
/// the portable staleness bound.
fn lease_is_stale(path: &Path) -> bool {
    match std::fs::read_to_string(path) {
        Ok(s) => match s.trim().parse::<u32>() {
            Ok(pid) => {
                if pid != std::process::id()
                    && cfg!(target_os = "linux")
                    && !Path::new(&format!("/proc/{pid}")).exists()
                {
                    return true;
                }
            }
            Err(_) => return true,
        },
        // Vanished between create_new and here: retry the create.
        Err(_) => return true,
    }
    matches!(
        std::fs::metadata(path)
            .and_then(|m| m.modified())
            .map(|t| t.elapsed().unwrap_or(Duration::ZERO)),
        Ok(age) if age > LEASE_STALE
    )
}

/// Point-in-time store counters (schema-v9 stats `store` object).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Whole-unit hits (memory or verified manifest).
    pub hits: u64,
    /// Whole-unit misses.
    pub misses: u64,
    /// Per-function fragment hits (work skipped on a warm recompile).
    pub partial_hits: u64,
    /// Per-function fragment misses.
    pub frag_misses: u64,
    /// Files that failed integrity verification and were moved to
    /// `corrupt/` (never silently reused).
    pub quarantined: u64,
    /// Stranded `.tmp` debris files removed on store open (left by a
    /// writer that crashed mid-publish, past the lease-staleness bound).
    pub swept: u64,
}

/// Thread-safe two-level (memory + optional disk) artifact store with
/// per-function fragments, integrity verification, quarantine and an
/// advisory cross-process lease (module docs have the full layout).
///
/// Disk-write failures are retried with a short backoff; if a write
/// still fails after `WRITE_ATTEMPTS` tries (read-only cache dir,
/// full disk), the disk layer is disabled for the rest of the run and
/// the cache degrades to memory-only. The degradation is recorded once
/// — drivers surface it to the user via
/// [`ArtifactCache::degradation_warning`].
#[derive(Debug)]
pub struct ArtifactCache {
    dir: Option<PathBuf>,
    mem: Mutex<BTreeMap<CacheKey, Arc<Artifact>>>,
    frag_mem: Mutex<BTreeMap<CacheKey, Arc<Fragment>>>,
    /// One front-half memo per unit name, memory only; its type is the
    /// compile pipeline's (`matc_vm::FrontMemo`).
    front: Mutex<BTreeMap<String, Arc<dyn Any + Send + Sync>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    partial_hits: AtomicU64,
    frag_misses: AtomicU64,
    quarantined: AtomicU64,
    swept: AtomicU64,
    faults: FaultPlan,
    disk_disabled: AtomicBool,
    degradation: Mutex<Option<String>>,
    warnings: Mutex<Vec<String>>,
    /// Serializes commits *within* this process so the on-disk lease
    /// only ever mediates cross-process contention.
    commit_lock: Mutex<()>,
}

impl ArtifactCache {
    /// A purely in-memory cache (dies with the process).
    pub fn in_memory() -> ArtifactCache {
        ArtifactCache {
            dir: None,
            mem: Mutex::new(BTreeMap::new()),
            frag_mem: Mutex::new(BTreeMap::new()),
            front: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            partial_hits: AtomicU64::new(0),
            frag_misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            swept: AtomicU64::new(0),
            faults: FaultPlan::quiet(0),
            disk_disabled: AtomicBool::new(false),
            degradation: Mutex::new(None),
            warnings: Mutex::new(Vec::new()),
            commit_lock: Mutex::new(()),
        }
    }

    /// A cache persisted under `dir` (created if absent, together with
    /// its `units/` and `frags/` tiers). Stranded `.tmp` debris from a
    /// writer that crashed mid-publish is swept on open — only files
    /// past the lease-staleness bound, since a fresh one may belong to
    /// a live writer mid-commit.
    ///
    /// # Errors
    ///
    /// Returns the error of creating `dir` or its tiers.
    pub fn at_dir(dir: impl Into<PathBuf>) -> io::Result<ArtifactCache> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("units"))?;
        std::fs::create_dir_all(dir.join("frags"))?;
        let swept = sweep_stale_tmp(&dir);
        let cache = ArtifactCache {
            dir: Some(dir),
            ..ArtifactCache::in_memory()
        };
        cache.swept.store(swept, Ordering::Relaxed);
        Ok(cache)
    }

    /// The disk location, if persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Attaches a fault-injection plan probing the cache's disk I/O
    /// (builder style, for tests and the `--faults` harness).
    pub fn with_faults(mut self, faults: FaultPlan) -> ArtifactCache {
        self.faults = faults;
        self
    }

    /// Whether the disk layer was disabled after persistent write
    /// failures (the cache is now memory-only).
    pub fn disk_degraded(&self) -> bool {
        self.disk_disabled.load(Ordering::Relaxed)
    }

    /// The one-time warning recorded when the disk layer degraded, if
    /// it did. Drivers print this once; it never repeats per write.
    pub fn degradation_warning(&self) -> Option<String> {
        lock_recover(&self.degradation).clone()
    }

    /// The disk dir, unless the layer has been disabled by degradation.
    fn live_dir(&self) -> Option<&Path> {
        if self.disk_disabled.load(Ordering::Relaxed) {
            return None;
        }
        self.dir.as_deref()
    }

    /// Looks `key` up (memory, then manifest tier), counting a hit or
    /// miss. A manifest that fails integrity verification is
    /// quarantined to `corrupt/` — moved aside once, counted, one
    /// structured warning — and reads as a miss, so the caller
    /// transparently recompiles.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Artifact>> {
        if let Some(a) = lock_recover(&self.mem).get(key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(a);
        }
        if let Some(dir) = self.live_dir() {
            let hex = key.hex();
            // Injected read fault: the stored bytes are served torn,
            // which must degrade to a miss. The file itself is intact,
            // so nothing is quarantined.
            if !self.faults.fires(FaultSite::CacheRead, &hex) {
                let man_path = dir.join("units").join(format!("{hex}.man"));
                if let Ok(bytes) = std::fs::read(&man_path) {
                    match Manifest::from_bytes(&bytes) {
                        Ok(m) => {
                            let a = Arc::new(m.artifact);
                            lock_recover(&self.mem).insert(*key, a.clone());
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return Some(a);
                        }
                        Err(why) => self.quarantine(dir, &man_path, &why),
                    }
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Looks a per-function fragment up (memory, then `frags/`),
    /// counting a partial hit or fragment miss. Corrupt fragments are
    /// quarantined exactly like manifests.
    pub fn get_fragment(&self, key: &CacheKey) -> Option<Arc<Fragment>> {
        if let Some(f) = lock_recover(&self.frag_mem).get(key).cloned() {
            self.partial_hits.fetch_add(1, Ordering::Relaxed);
            return Some(f);
        }
        if let Some(dir) = self.live_dir() {
            let fhex = key.hex();
            if !self.faults.fires(FaultSite::CacheRead, &fhex) {
                let path = dir.join("frags").join(format!("{fhex}.frag"));
                if let Ok(bytes) = std::fs::read(&path) {
                    match Fragment::from_bytes(&bytes) {
                        Ok(f) => {
                            let f = Arc::new(f);
                            lock_recover(&self.frag_mem).insert(*key, f.clone());
                            self.partial_hits.fetch_add(1, Ordering::Relaxed);
                            return Some(f);
                        }
                        Err(why) => self.quarantine(dir, &path, &why),
                    }
                }
            }
        }
        self.frag_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// The front-half memo the last budget-free compile of `unit` left,
    /// if it is a `T` (the pipeline's `matc_vm::FrontMemo`). It lives
    /// in memory only.
    pub fn front_memo<T: Any + Send + Sync>(&self, unit: &str) -> Option<Arc<T>> {
        let memo = lock_recover(&self.front).get(unit).cloned()?;
        memo.downcast().ok()
    }

    /// Replaces `unit`'s front-half memo: one memo per unit name, so
    /// edits replace it, they never add to the store.
    pub fn put_front_memo<T: Any + Send + Sync>(&self, unit: &str, memo: T) {
        lock_recover(&self.front).insert(unit.to_string(), Arc::new(memo));
    }

    /// Stores `artifact` under `key` in memory and (atomically, with
    /// bounded retry) on disk. Equivalent to [`ArtifactCache::put_unit`]
    /// with no fragments. Persistent disk failure disables the disk
    /// layer for the rest of the run — see
    /// [`ArtifactCache::degradation_warning`].
    pub fn put(&self, key: &CacheKey, artifact: Arc<Artifact>) {
        self.put_unit(key, artifact, &[]);
    }

    /// Commits a unit: fragments first (content-addressed, fsynced),
    /// then the manifest by an atomic temp-file + rename — the
    /// crash-safety ordering from the module docs. Commits serialize on
    /// the in-process lock and the advisory cross-process lease; a
    /// crash anywhere before the manifest rename leaves the old unit
    /// (or a clean miss) visible, never a hybrid.
    pub fn put_unit(
        &self,
        key: &CacheKey,
        artifact: Arc<Artifact>,
        frags: &[(CacheKey, Arc<Fragment>)],
    ) {
        {
            let mut mem = lock_recover(&self.frag_mem);
            for (fk, frag) in frags {
                mem.insert(*fk, frag.clone());
            }
        }
        if let Some(dir) = self.live_dir() {
            let hex = key.hex();
            // In-process commits serialize here, so the on-disk lease
            // only ever mediates *cross-process* writers.
            let _guard = lock_recover(&self.commit_lock);
            let _lease = Lease::acquire(dir);
            // 1. Fragments, fsynced before the manifest that lists them.
            //    Content-addressed, so a crash that strands some is
            //    harmless: unreachable at worst, a warm start at best.
            let mut listed = Vec::with_capacity(frags.len());
            for (fk, frag) in frags {
                if self.disk_disabled.load(Ordering::Relaxed) {
                    break;
                }
                let fhex = fk.hex();
                let path = dir.join("frags").join(format!("{fhex}.frag"));
                if path.exists() {
                    listed.push(fhex);
                    continue;
                }
                let mut bytes = frag.to_bytes();
                if self.faults.fires(FaultSite::StoreFragCorrupt, &fhex) {
                    // Injected storage rot: flip one payload bit so the
                    // embedded digest fails on the next read.
                    if let Some(last) = bytes.last_mut() {
                        *last ^= 0x01;
                    }
                }
                if self.write_frag(dir, &fhex, &bytes) {
                    listed.push(fhex);
                }
            }
            // Fragment publish degraded the disk (e.g. ENOSPC): skip
            // the manifest — it would list fragments that never became
            // durable — and keep serving the unit from memory.
            if self.disk_disabled.load(Ordering::Relaxed) {
                lock_recover(&self.mem).insert(*key, artifact);
                return;
            }
            // 2. Simulated writer death between fragment write and
            //    manifest rename: nothing is published (and nothing
            //    reaches this process's unit memory) — a fresh reader
            //    sees either the old unit or a clean miss.
            if self.faults.fires(FaultSite::StorePutCrash, &hex) {
                return;
            }
            // 3. The manifest commit itself, with bounded retry.
            let manifest = Manifest {
                artifact: (*artifact).clone(),
                frags: listed,
            };
            let mut bytes = manifest.to_bytes();
            if self.faults.fires(FaultSite::StoreTornManifest, &hex) {
                // Injected torn publish (power loss mid-write): only a
                // prefix reaches disk. The embedded digest catches it
                // on the next read and the file is quarantined.
                bytes.truncate(bytes.len() / 2);
            }
            let mut last_err = String::new();
            let mut wrote = false;
            let retry_start = Instant::now();
            for attempt in 0..WRITE_ATTEMPTS {
                if attempt > 0 {
                    match backoff_delay(&hex, attempt, retry_start.elapsed()) {
                        Some(delay) => std::thread::sleep(delay),
                        // Out of time budget: treat like exhausted
                        // attempts and let the disk layer degrade.
                        None => break,
                    }
                }
                match self.write_once(dir, &hex, &bytes, attempt) {
                    Ok(()) => {
                        wrote = true;
                        break;
                    }
                    Err(e) => last_err = e.to_string(),
                }
            }
            if !wrote {
                self.disable_disk(&last_err);
            }
        }
        lock_recover(&self.mem).insert(*key, artifact);
    }

    /// One atomic manifest write attempt (durable temp file + rename),
    /// with the fault-injection probes for `attempt`.
    fn write_once(&self, dir: &Path, hex: &str, bytes: &[u8], attempt: u32) -> io::Result<()> {
        if self.faults.write_attempt_fails(hex, attempt) {
            return Err(io::Error::other(format!(
                "injected cache-write fault (attempt {attempt})"
            )));
        }
        if self.faults.fires(FaultSite::StoreFull, hex) {
            // Disk-full is persistent within a commit: every attempt
            // fails, so the retry ladder exhausts and degrades cleanly.
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected disk-full fault (ENOSPC)",
            ));
        }
        write_file_durable(dir, "units", hex, "man", bytes)
    }

    /// Publishes one content-addressed fragment with the same bounded
    /// retry ladder as manifests. Exhausted retries (read-only dir,
    /// `ENOSPC`) degrade the disk layer — one structured warning, then
    /// memory-only caching — instead of surfacing an error.
    fn write_frag(&self, dir: &Path, fhex: &str, bytes: &[u8]) -> bool {
        let mut last_err = String::new();
        let retry_start = Instant::now();
        for attempt in 0..WRITE_ATTEMPTS {
            if attempt > 0 {
                match backoff_delay(fhex, attempt, retry_start.elapsed()) {
                    Some(delay) => std::thread::sleep(delay),
                    None => break,
                }
            }
            if self.faults.fires(FaultSite::StoreFull, fhex) {
                last_err = "injected disk-full fault (ENOSPC)".to_string();
                continue;
            }
            match write_file_durable(dir, "frags", fhex, "frag", bytes) {
                Ok(()) => return true,
                Err(e) => last_err = e.to_string(),
            }
        }
        self.disable_disk(&last_err);
        false
    }

    /// Moves a file that failed integrity verification into `corrupt/`
    /// under a unique name, counts it, and records one structured
    /// warning. The file is never read again — a lost race (another
    /// process already moved it) counts and warns nowhere.
    fn quarantine(&self, dir: &Path, path: &Path, why: &str) {
        static QUAR_SEQ: AtomicU64 = AtomicU64::new(0);
        let corrupt = dir.join("corrupt");
        let _ = std::fs::create_dir_all(&corrupt);
        let name = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unnamed".to_string());
        let seq = QUAR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dest = corrupt.join(format!("{name}.{}.{seq}", std::process::id()));
        if std::fs::rename(path, &dest).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            lock_recover(&self.warnings).push(format!(
                "quarantined corrupt store file `{}` -> `{}` ({why}); \
                 the unit will be recompiled",
                path.display(),
                dest.display()
            ));
        }
    }

    /// Degrades the cache to memory-only, recording the warning once.
    fn disable_disk(&self, last_err: &str) {
        if self.disk_disabled.swap(true, Ordering::Relaxed) {
            return; // already degraded; keep the first warning
        }
        let dir = self
            .dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_default();
        *lock_recover(&self.degradation) = Some(format!(
            "cache dir `{dir}` is not writable ({last_err} after {WRITE_ATTEMPTS} attempts); \
             continuing with in-memory caching only"
        ));
    }

    /// Whole-unit hits served since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Whole-unit misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Per-function fragment hits since construction.
    pub fn partial_hits(&self) -> u64 {
        self.partial_hits.load(Ordering::Relaxed)
    }

    /// Per-function fragment misses since construction.
    pub fn frag_misses(&self) -> u64 {
        self.frag_misses.load(Ordering::Relaxed)
    }

    /// Files quarantined to `corrupt/` since construction.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Stranded stale `.tmp` files swept when the store was opened.
    pub fn swept(&self) -> u64 {
        self.swept.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of every store counter.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            partial_hits: self.partial_hits(),
            frag_misses: self.frag_misses(),
            quarantined: self.quarantined(),
            swept: self.swept(),
        }
    }

    /// Drains the structured warnings recorded so far (quarantine
    /// events). Drivers print each once.
    pub fn drain_warnings(&self) -> Vec<String> {
        std::mem::take(&mut *lock_recover(&self.warnings))
    }
}

/// Removes stranded `.tmp` debris under `units/` and `frags/`: the
/// dot-prefixed temp files a crashed writer left behind, but only those
/// untouched past the lease-staleness bound — a fresh one may belong to
/// a live writer mid-publish and must never be deleted from under it.
/// Returns how many files were removed.
fn sweep_stale_tmp(dir: &Path) -> u64 {
    let mut swept = 0;
    for sub in ["units", "frags"] {
        let Ok(entries) = std::fs::read_dir(dir.join(sub)) else {
            continue;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !(name.starts_with('.') && name.ends_with(".tmp")) {
                continue;
            }
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .map(|t| t.elapsed().unwrap_or(Duration::ZERO) > LEASE_STALE)
                .unwrap_or(false);
            if stale && std::fs::remove_file(entry.path()).is_ok() {
                swept += 1;
            }
        }
    }
    swept
}

/// Writes `bytes` durably to `<dir>/<sub>/<stem>.<ext>`: unique temp
/// file, `fsync`, then an atomic rename, so a reader never observes a
/// half-written file under the final name. Tmp names carry a per-write
/// sequence number: two threads writing the same key must not share one
/// tmp path, or a concurrent truncate + rename can publish a torn file.
fn write_file_durable(
    dir: &Path,
    sub: &str,
    stem: &str,
    ext: &str,
    bytes: &[u8],
) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let sub = dir.join(sub);
    let final_path = sub.join(format!("{stem}.{ext}"));
    let tmp_path = sub.join(format!(".{stem}.{}.{seq}.tmp", std::process::id()));
    let mut f = std::fs::File::create(&tmp_path)?;
    {
        use std::io::Write as _;
        if let Err(e) = f.write_all(bytes).and_then(|()| f.sync_all()) {
            drop(f);
            let _ = std::fs::remove_file(&tmp_path);
            return Err(e);
        }
    }
    drop(f);
    if let Err(e) = std::fs::rename(&tmp_path, &final_path) {
        let _ = std::fs::remove_file(&tmp_path);
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn unit_keys_are_pinned() {
        // Changing the key stream orphans every persisted store: bump
        // the version tag on purpose, then re-pin.
        assert_eq!(
            CacheKey::compute(["function f()\n"], "fp").hex(),
            "77710fc24cb1c8a979cfa1b922c66a4895ddcdab2547d1c996d5fb6c81b1ed79"
        );
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        let d = Sha256::new().finish();
        assert_eq!(
            hex(&d),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        let mut h = Sha256::new();
        h.update(b"abc");
        assert_eq!(
            hex(&h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        let mut h = Sha256::new();
        h.update(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
        assert_eq!(
            hex(&h.finish()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Split updates agree with one-shot hashing (buffer handling).
        let mut h = Sha256::new();
        let data = vec![0xabu8; 1000];
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        let mut g = Sha256::new();
        g.update(&data);
        assert_eq!(h.finish(), g.finish());
    }

    #[test]
    fn key_depends_on_sources_boundaries_and_options() {
        let fp = options_fingerprint(&GctdOptions::default());
        let a = CacheKey::compute(["ab", "c"], &fp);
        let b = CacheKey::compute(["a", "bc"], &fp);
        let c = CacheKey::compute(["ab", "c"], &fp);
        assert_ne!(a, b, "length prefixes keep file boundaries distinct");
        assert_eq!(a, c);
        let no_gctd = options_fingerprint(&GctdOptions {
            coalesce: false,
            ..GctdOptions::default()
        });
        assert_ne!(CacheKey::compute(["ab", "c"], &no_gctd), a);
        assert_eq!(a.hex().len(), 64);
    }

    #[test]
    fn fingerprint_covers_every_option() {
        let base = options_fingerprint(&GctdOptions::default());
        let variants = [
            GctdOptions {
                coalesce: false,
                ..GctdOptions::default()
            },
            GctdOptions {
                symbolic_criterion: false,
                ..GctdOptions::default()
            },
            GctdOptions {
                interference: crate::InterferenceOptions {
                    operator_semantics: false,
                    phi_coalescing: true,
                },
                ..GctdOptions::default()
            },
            GctdOptions {
                interference: crate::InterferenceOptions {
                    operator_semantics: true,
                    phi_coalescing: false,
                },
                ..GctdOptions::default()
            },
            GctdOptions {
                coloring: ColoringStrategy::SizeOrderedGreedy,
                ..GctdOptions::default()
            },
            GctdOptions {
                coloring: ColoringStrategy::Exhaustive { max_nodes: 9 },
                ..GctdOptions::default()
            },
        ];
        for v in &variants {
            assert_ne!(options_fingerprint(v), base, "{v:?} must alter the key");
        }
    }

    #[test]
    fn artifact_roundtrips_including_tricky_bytes() {
        let mut meta = BTreeMap::new();
        meta.insert("c_bytes".to_string(), 42u64);
        meta.insert("slots".to_string(), 3u64);
        let a = Artifact {
            c_code: "int main(void) {\n  return 0;\n}\nsection c 999\n".to_string(),
            plan_text: "slot 0 [heap]\n".to_string(),
            audit_json: "[]".to_string(),
            meta,
        };
        let b = Artifact::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.meta_value("c_bytes"), 42);
        assert_eq!(b.meta_value("absent"), 0);
    }

    #[test]
    fn artifact_and_fragment_bytes_are_pinned() {
        // The on-disk formats, byte for byte: stores written by older
        // builds must keep reading back.
        let a = Artifact {
            c_code: "int x;\n".to_string(),
            plan_text: "p\n".to_string(),
            audit_json: "[]".to_string(),
            meta: BTreeMap::from([("a".to_string(), 1), ("b".to_string(), 22)]),
        };
        let a_bytes = "matc-artifact v1\n\
                       section c 7\nint x;\n\n\
                       section plan 2\np\n\n\
                       section audit 2\n[]\n\
                       section meta 9\na 1\nb 22\n\n";
        assert_eq!(String::from_utf8(a.to_bytes()).unwrap(), a_bytes);
        assert_eq!(Artifact::from_bytes(a_bytes.as_bytes()).unwrap(), a);

        let f = Fragment {
            body: "f\n".to_string(),
            plan_text: "g:\n".to_string(),
            findings: String::new(),
            meta: BTreeMap::from([("plan_slots".to_string(), 1)]),
        };
        let f_bytes = "matc-frag v1\n\
                       sha256 8be60360adc7a0b83924054d49fcbcaccd85a84f32d9009fd2452f43a65c6b1d\n\
                       section body 2\nf\n\n\
                       section plan 3\ng:\n\n\
                       section findings 0\n\n\
                       section meta 13\nplan_slots 1\n\n";
        assert_eq!(String::from_utf8(f.to_bytes()).unwrap(), f_bytes);
        assert_eq!(Fragment::from_bytes(f_bytes.as_bytes()).unwrap(), f);
    }

    #[test]
    fn corrupt_artifacts_are_rejected() {
        assert!(Artifact::from_bytes(b"").is_err());
        assert!(Artifact::from_bytes(b"wrong magic\n").is_err());
        let a = Artifact {
            c_code: "x".to_string(),
            plan_text: String::new(),
            audit_json: "[]".to_string(),
            meta: BTreeMap::new(),
        };
        let mut bytes = a.to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(Artifact::from_bytes(&bytes).is_err());
        // A crafted usize::MAX section length must degrade to an error,
        // not overflow the bounds check.
        let huge = format!("{ARTIFACT_MAGIC}\nsection c {}\nx\n", usize::MAX);
        assert!(Artifact::from_bytes(huge.as_bytes()).is_err());
        let exact = format!("{ARTIFACT_MAGIC}\nsection c {}\nxy", 2);
        assert!(
            Artifact::from_bytes(exact.as_bytes()).is_err(),
            "no newline after body"
        );
    }

    #[test]
    fn memory_cache_counts_hits_and_misses() {
        let cache = ArtifactCache::in_memory();
        let key = CacheKey::compute(["src"], "fp");
        assert!(cache.get(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.put(
            &key,
            Arc::new(Artifact {
                c_code: "c".to_string(),
                plan_text: "p".to_string(),
                audit_json: "[]".to_string(),
                meta: BTreeMap::new(),
            }),
        );
        assert!(cache.get(&key).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn disk_cache_roundtrips_across_instances() {
        let dir = std::env::temp_dir().join(format!("matc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = CacheKey::compute(["function f\n"], "fp");
        let artifact = Arc::new(Artifact {
            c_code: "int main(void) { return 0; }\n".to_string(),
            plan_text: "function f:\n".to_string(),
            audit_json: "[]".to_string(),
            meta: BTreeMap::from([("c_bytes".to_string(), 28u64)]),
        });
        {
            let cache = ArtifactCache::at_dir(&dir).unwrap();
            cache.put(&key, artifact.clone());
        }
        let fresh = ArtifactCache::at_dir(&dir).unwrap();
        let got = fresh.get(&key).expect("disk hit");
        assert_eq!(*got, *artifact);
        assert_eq!(fresh.hits(), 1);
        // Corrupt the stored manifest: the entry is quarantined (moved
        // aside, counted, one warning) and degrades to a miss.
        let path = dir.join("units").join(format!("{}.man", key.hex()));
        std::fs::write(&path, b"garbage").unwrap();
        let fresh2 = ArtifactCache::at_dir(&dir).unwrap();
        assert!(fresh2.get(&key).is_none());
        assert_eq!(fresh2.quarantined(), 1);
        assert!(!path.exists(), "corrupt file moved to corrupt/");
        let warnings = fresh2.drain_warnings();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("quarantined"), "{warnings:?}");
        // Re-read: a plain miss now — quarantine happens exactly once.
        assert!(fresh2.get(&key).is_none());
        assert_eq!(fresh2.quarantined(), 1);
        assert!(fresh2.drain_warnings().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tiny_artifact(tag: &str) -> Arc<Artifact> {
        Arc::new(Artifact {
            c_code: format!("// {tag}\n"),
            plan_text: "p".to_string(),
            audit_json: "[]".to_string(),
            meta: BTreeMap::new(),
        })
    }

    #[test]
    fn injected_read_fault_degrades_to_miss() {
        let dir = std::env::temp_dir().join(format!("matc-cache-rfault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = CacheKey::compute(["src"], "fp");
        ArtifactCache::at_dir(&dir)
            .unwrap()
            .put(&key, tiny_artifact("a"));
        // Fresh instance (empty memory layer) with a 100% read fault:
        // the intact on-disk artifact must read as torn, i.e. a miss.
        let faulty = ArtifactCache::at_dir(&dir)
            .unwrap()
            .with_faults(FaultPlan::quiet(1).cache_reads(100));
        assert!(faulty.get(&key).is_none());
        assert_eq!(faulty.misses(), 1);
        // Without the fault the same file still serves a hit — the
        // injection corrupted the read, not the stored artifact.
        let clean = ArtifactCache::at_dir(&dir).unwrap();
        assert!(clean.get(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_write_faults_clear_within_the_retry_budget() {
        let dir = std::env::temp_dir().join(format!("matc-cache-wfault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = CacheKey::compute(["src"], "fp");
        let cache = ArtifactCache::at_dir(&dir)
            .unwrap()
            .with_faults(FaultPlan::quiet(1).cache_writes(100).transient(2));
        cache.put(&key, tiny_artifact("retry"));
        assert!(!cache.disk_degraded(), "two failures, third attempt lands");
        assert!(cache.degradation_warning().is_none());
        // The artifact reached disk: a fresh instance reads it back.
        assert!(ArtifactCache::at_dir(&dir).unwrap().get(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_write_failure_degrades_to_memory_only_with_one_warning() {
        let dir = std::env::temp_dir().join(format!("matc-cache-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key_a = CacheKey::compute(["a"], "fp");
        let key_b = CacheKey::compute(["b"], "fp");
        let cache = ArtifactCache::at_dir(&dir)
            .unwrap()
            .with_faults(FaultPlan::quiet(1).cache_writes(100).transient(u8::MAX));
        cache.put(&key_a, tiny_artifact("a"));
        assert!(cache.disk_degraded());
        let warning = cache.degradation_warning().expect("warning recorded");
        assert!(warning.contains("in-memory caching only"), "{warning}");
        // Degraded, not broken: memory layer still serves the entry.
        assert!(cache.get(&key_a).is_some());
        // Later puts skip disk entirely and keep the first warning.
        cache.put(&key_b, tiny_artifact("b"));
        assert_eq!(cache.degradation_warning().as_deref(), Some(&*warning));
        assert!(cache.get(&key_b).is_some());
        // Nothing was published to disk.
        let fresh = ArtifactCache::at_dir(&dir).unwrap();
        assert!(fresh.get(&key_a).is_none());
        assert!(fresh.get(&key_b).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_backoff_is_jittered_deterministic_and_bounded() {
        for attempt in 1..=2u32 {
            let base = Duration::from_micros(1_000 << (attempt - 1));
            let mut distinct = std::collections::BTreeSet::new();
            for key in ["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"] {
                let d = backoff_delay(key, attempt, Duration::ZERO)
                    .expect("zero elapsed never exceeds the cap");
                assert!(d >= base, "jitter only adds: {d:?} < {base:?}");
                assert!(d <= base * 2, "jitter is at most 100% of base: {d:?}");
                assert_eq!(
                    backoff_delay(key, attempt, Duration::ZERO),
                    Some(d),
                    "same key + attempt reproduces the same delay"
                );
                distinct.insert(d);
            }
            assert!(
                distinct.len() > 1,
                "attempt {attempt}: eight keys all backed off in lockstep"
            );
        }
    }

    #[test]
    fn write_backoff_total_elapsed_is_capped() {
        // At the cap (or past it) no further delay is granted.
        assert_eq!(backoff_delay("k", 1, WRITE_BACKOFF_CAP), None);
        assert_eq!(
            backoff_delay("k", 1, WRITE_BACKOFF_CAP + Duration::from_secs(1)),
            None
        );
        // Walking the real retry schedule, the summed sleeps of a full
        // WRITE_ATTEMPTS run always fit under the cap — attempts are
        // bounded by count *and* by time.
        for key in ["a", "b", "c"] {
            let mut elapsed = Duration::ZERO;
            let mut retries = 0;
            for attempt in 1..WRITE_ATTEMPTS {
                match backoff_delay(key, attempt, elapsed) {
                    Some(d) => {
                        elapsed += d;
                        retries += 1;
                    }
                    None => break,
                }
            }
            assert!(elapsed <= WRITE_BACKOFF_CAP, "{key}: {elapsed:?}");
            assert!(retries < WRITE_ATTEMPTS);
        }
    }

    #[test]
    fn concurrent_same_key_puts_never_publish_torn_artifacts() {
        // Regression: tmp names were keyed by key + pid only, so two
        // threads missing on one key shared a tmp path and could tear
        // each other's write. Writers of different sizes make a torn
        // publish parse as truncated.
        let dir = std::env::temp_dir().join(format!("matc-cache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::at_dir(&dir).unwrap();
        let key = CacheKey::compute(["src"], "fp");
        std::thread::scope(|s| {
            for t in 0..4usize {
                let cache = &cache;
                s.spawn(move || {
                    let a = Arc::new(Artifact {
                        c_code: format!("// writer {t}\n").repeat(500 * (t + 1)),
                        plan_text: "p".to_string(),
                        audit_json: "[]".to_string(),
                        meta: BTreeMap::new(),
                    });
                    for _ in 0..50 {
                        cache.put(&key, a.clone());
                    }
                });
            }
        });
        // Whichever writer won the final rename, the published file
        // must parse whole (a fresh instance forces the disk read).
        let fresh = ArtifactCache::at_dir(&dir).unwrap();
        let got = fresh.get(&key).expect("published artifact parses");
        assert!(got.c_code.starts_with("// writer "));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tiny_fragment(tag: &str) -> Arc<Fragment> {
        Arc::new(Fragment {
            body: format!("static void f_{tag}(void) {{\n}}\n"),
            plan_text: format!("function {tag}:\n  slot 0\n"),
            findings: String::new(),
            meta: BTreeMap::from([("plan_slots".to_string(), 1u64)]),
        })
    }

    #[test]
    fn fragment_and_manifest_roundtrip_and_detect_every_bit_flip() {
        let frag = (*tiny_fragment("g")).clone();
        let bytes = frag.to_bytes();
        assert_eq!(Fragment::from_bytes(&bytes).unwrap(), frag);
        // Any single flipped bit — header or payload — fails parsing or
        // the embedded digest; nothing corrupt ever parses.
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x40;
            assert!(
                Fragment::from_bytes(&b).is_err(),
                "flip at byte {i} accepted"
            );
        }
        assert!(Fragment::from_bytes(&bytes[..bytes.len() - 1]).is_err());

        let man = Manifest {
            artifact: (*tiny_artifact("m")).clone(),
            frags: vec![CacheKey::compute(["f"], "fp").hex()],
        };
        let bytes = man.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes).unwrap(), man);
        let mut torn = bytes.clone();
        torn.truncate(bytes.len() / 2);
        assert!(Manifest::from_bytes(&torn).is_err(), "torn prefix accepted");
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(Manifest::from_bytes(&flipped).is_err());
    }

    #[test]
    fn stray_legacy_artifact_reads_as_a_plain_miss() {
        let dir = std::env::temp_dir().join(format!("matc-cache-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::at_dir(&dir).unwrap();
        let key = CacheKey::compute(["legacy"], "fp");
        // A flat file where pre-manifest writers put artifacts is no
        // longer part of the store: not read, not quarantined, no warning.
        let legacy = dir.join(format!("{}.art", key.hex()));
        let a = Artifact {
            c_code: "x".to_string(),
            plan_text: String::new(),
            audit_json: "[]".to_string(),
            meta: BTreeMap::new(),
        };
        std::fs::write(&legacy, a.to_bytes()).unwrap();
        assert!(cache.get(&key).is_none());
        assert_eq!((cache.misses(), cache.quarantined()), (1, 0));
        assert!(legacy.exists(), "stray file was moved");
        assert!(cache.drain_warnings().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_unit_fragments_roundtrip_across_instances() {
        let dir = std::env::temp_dir().join(format!("matc-cache-frag-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = CacheKey::compute(["unit"], "fp");
        let fk = CacheKey::compute_parts("matc-frag-v1", ["fp", "ir of g"]);
        let frag = tiny_fragment("g");
        {
            let cache = ArtifactCache::at_dir(&dir).unwrap();
            cache.put_unit(&key, tiny_artifact("u"), &[(fk, frag.clone())]);
        }
        // A fresh instance (fresh process) serves both tiers off disk.
        let fresh = ArtifactCache::at_dir(&dir).unwrap();
        assert!(fresh.get(&key).is_some());
        assert_eq!(*fresh.get_fragment(&fk).expect("fragment hit"), *frag);
        assert_eq!(
            fresh.stats(),
            CacheStats {
                hits: 1,
                misses: 0,
                partial_hits: 1,
                frag_misses: 0,
                quarantined: 0,
                swept: 0,
            }
        );
        // Unknown fragment key: a counted fragment miss.
        let other = CacheKey::compute_parts("matc-frag-v1", ["other"]);
        assert!(fresh.get_fragment(&other).is_none());
        assert_eq!(fresh.frag_misses(), 1);
        // The lease never outlives its commit.
        assert!(!dir.join("store.lease").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_full_degrades_to_memory_only_not_an_error() {
        let dir = std::env::temp_dir().join(format!("matc-cache-enospc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = CacheKey::compute(["unit"], "fp");
        let fk = CacheKey::compute_parts("matc-frag-v1", ["fp", "ir of g"]);
        let cache = ArtifactCache::at_dir(&dir)
            .unwrap()
            .with_faults(FaultPlan::quiet(1).store_fulls(100));
        // A full disk during fragment publish degrades — one structured
        // warning, memory-only from here — instead of erroring out.
        cache.put_unit(&key, tiny_artifact("u"), &[(fk, tiny_fragment("g"))]);
        assert!(cache.disk_degraded());
        let warning = cache.degradation_warning().expect("warning recorded");
        assert!(warning.contains("in-memory caching only"), "{warning}");
        assert!(warning.contains("ENOSPC"), "{warning}");
        // Degraded, not broken: both tiers still serve from memory.
        assert!(cache.get(&key).is_some());
        assert!(cache.get_fragment(&fk).is_some());
        // Nothing partial reached disk — no manifest, no fragment.
        let fresh = ArtifactCache::at_dir(&dir).unwrap();
        assert!(fresh.get(&key).is_none());
        assert_eq!(std::fs::read_dir(dir.join("frags")).unwrap().count(), 0);
        // A whole-unit put (no fragments) degrades the same way.
        let dir2 = std::env::temp_dir().join(format!("matc-cache-enospc2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir2);
        let cache2 = ArtifactCache::at_dir(&dir2)
            .unwrap()
            .with_faults(FaultPlan::quiet(1).store_fulls(100));
        cache2.put(&key, tiny_artifact("v"));
        assert!(cache2.disk_degraded());
        assert!(cache2.get(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn store_open_sweeps_stale_tmp_debris_but_never_fresh_ones() {
        let dir = std::env::temp_dir().join(format!("matc-cache-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("units")).unwrap();
        std::fs::create_dir_all(dir.join("frags")).unwrap();
        // A crashed writer's debris: stale tmp files in both tiers,
        // backdated past the lease-staleness bound.
        let stale_unit = dir.join("units").join(".deadbeef.1.0.tmp");
        let stale_frag = dir.join("frags").join(".cafebabe.1.1.tmp");
        // A live writer's in-flight tmp (fresh mtime) plus a published
        // file: neither may be touched.
        let fresh_tmp = dir.join("units").join(".feedface.2.0.tmp");
        let published = dir.join("units").join("deadbeef.man");
        for p in [&stale_unit, &stale_frag, &fresh_tmp, &published] {
            std::fs::write(p, b"bytes").unwrap();
        }
        let old = std::time::SystemTime::now() - (LEASE_STALE + Duration::from_secs(8));
        for p in [&stale_unit, &stale_frag] {
            let f = std::fs::OpenOptions::new().write(true).open(p).unwrap();
            f.set_times(std::fs::FileTimes::new().set_modified(old))
                .unwrap();
        }
        let cache = ArtifactCache::at_dir(&dir).unwrap();
        assert_eq!(cache.swept(), 2);
        assert_eq!(cache.stats().swept, 2);
        assert!(!stale_unit.exists() && !stale_frag.exists());
        assert!(fresh_tmp.exists(), "live writer's tmp swept from under it");
        assert!(published.exists());
        // Reopening after the sweep finds nothing stale.
        assert_eq!(ArtifactCache::at_dir(&dir).unwrap().swept(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_crash_publishes_nothing_and_torn_manifest_heals() {
        let dir = std::env::temp_dir().join(format!("matc-cache-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = CacheKey::compute(["unit"], "fp");
        let old = tiny_artifact("old");
        ArtifactCache::at_dir(&dir).unwrap().put(&key, old.clone());
        // A writer dying between fragment write and manifest rename
        // publishes nothing: a fresh process still sees the old unit.
        let crashing = ArtifactCache::at_dir(&dir)
            .unwrap()
            .with_faults(FaultPlan::quiet(1).put_crashes(100));
        crashing.put(&key, tiny_artifact("new"));
        let fresh = ArtifactCache::at_dir(&dir).unwrap();
        assert_eq!(*fresh.get(&key).expect("old unit intact"), *old);
        // A torn manifest publish fails its embedded digest on the next
        // read, is quarantined, and reads as a clean miss.
        let tearing = ArtifactCache::at_dir(&dir)
            .unwrap()
            .with_faults(FaultPlan::quiet(1).torn_manifests(100));
        tearing.put(&key, tiny_artifact("newer"));
        let fresh2 = ArtifactCache::at_dir(&dir).unwrap();
        assert!(fresh2.get(&key).is_none(), "torn manifest must not serve");
        assert_eq!(fresh2.quarantined(), 1);
        // Self-healing: the recompiled unit commits and serves again.
        fresh2.put(&key, tiny_artifact("healed"));
        let fresh3 = ArtifactCache::at_dir(&dir).unwrap();
        assert_eq!(fresh3.get(&key).unwrap().c_code, "// healed\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_fragment_corruption_quarantines_on_read_and_reheals() {
        let dir = std::env::temp_dir().join(format!("matc-cache-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = CacheKey::compute(["unit"], "fp");
        let fk = CacheKey::compute_parts("matc-frag-v1", ["fp", "ir of g"]);
        let frag = tiny_fragment("g");
        let corrupting = ArtifactCache::at_dir(&dir)
            .unwrap()
            .with_faults(FaultPlan::quiet(1).frag_corruptions(100));
        corrupting.put_unit(&key, tiny_artifact("u"), &[(fk, frag.clone())]);
        // Fresh process: the manifest is fine, but the rotted fragment
        // fails its digest, is quarantined, and reads as a miss — never
        // served corrupt.
        let fresh = ArtifactCache::at_dir(&dir).unwrap();
        assert!(fresh.get(&key).is_some(), "manifest unaffected by rot");
        assert!(fresh.get_fragment(&fk).is_none());
        assert_eq!((fresh.quarantined(), fresh.frag_misses()), (1, 1));
        // Healing: a clean rewrite of the same fragment serves again.
        fresh.put_unit(&key, tiny_artifact("u"), &[(fk, frag.clone())]);
        let fresh2 = ArtifactCache::at_dir(&dir).unwrap();
        assert_eq!(*fresh2.get_fragment(&fk).unwrap(), *frag);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lease_is_stolen_and_live_lease_is_respected() {
        let dir = std::env::temp_dir().join(format!("matc-cache-lease-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // An unparseable owner is provably stale: stolen immediately.
        std::fs::write(dir.join("store.lease"), b"not-a-pid").unwrap();
        let held = Lease::acquire(&dir).expect("stale lease stolen");
        // A live lease (fresh, owned by a running pid) is respected:
        // the contender times out and proceeds unleased instead of
        // stealing or blocking.
        assert!(Lease::acquire(&dir).is_none());
        drop(held);
        assert!(!dir.join("store.lease").exists(), "released on drop");
        assert!(Lease::acquire(&dir).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
