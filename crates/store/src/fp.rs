//! Structural fingerprints: the content addresses of cached results.
//!
//! A fingerprint hashes *everything that can influence a function's
//! findings* and nothing else:
//!
//! * the canonical encoding of the function, its transitive defined
//!   callees, and the globals they reference
//!   ([`lcm_ir::canon::encode_function_deps`] — inlining and unrolling
//!   make callee bodies part of the analyzed A-CFG);
//! * which engine ran (PHT / STL / PSF, or a baseline engine);
//! * every configuration knob that changes completed findings
//!   (speculation capacities, window size, class filters, extension
//!   toggles). Knobs that only change *how fast* the same findings are
//!   produced — `jobs`, budgets, fault plans — are
//!   deliberately excluded, so a warm cache survives a thread-count or
//!   budget change.
//!
//! The hash is 128-bit FNV-1a. It is not cryptographic — the store
//! defends against corruption and version skew, not adversarial
//! collision-crafting — but 128 bits make accidental collisions
//! negligible at any realistic cache size.

use lcm_detect::{DetectorConfig, EngineKind};
use lcm_haunted::{HauntedConfig, HauntedEngine};
use lcm_ir::{canon, Module};

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// Streaming FNV-1a/128 hasher.
#[derive(Debug, Clone)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128(FNV_OFFSET)
    }
}

impl Fnv128 {
    /// Absorbs raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a length-prefixed string (prefixing keeps field
    /// boundaries unambiguous: `("ab","c")` must not collide with
    /// `("a","bc")`).
    pub fn update_str(&mut self, s: &str) {
        self.update(&(s.len() as u32).to_le_bytes());
        self.update(s.as_bytes());
    }

    /// Absorbs a u64 field.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.0)
    }
}

/// A 128-bit content address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// On-disk little-endian form.
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Parses the on-disk form.
    pub fn from_bytes(b: [u8; 16]) -> Self {
        Fingerprint(u128::from_le_bytes(b))
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a/64, used for per-record checksums in the log (16 bytes of
/// checksum per record would be overkill; 8 detect any realistic
/// bit-rot or torn write).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn engine_tag(engine: EngineKind) -> u64 {
    match engine {
        EngineKind::Pht => 0,
        EngineKind::Stl => 1,
        EngineKind::Psf => 2,
    }
}

/// The address of one (function, Clou engine, config) analysis result.
pub fn clou_fingerprint(
    module: &Module,
    fname: &str,
    config: &DetectorConfig,
    engine: EngineKind,
) -> Fingerprint {
    let mut h = Fnv128::default();
    h.update_str("clou");
    h.update_u64(engine_tag(engine));
    // Findings-affecting knobs only; see module docs for the exclusions.
    h.update_u64(config.spec.rob_size as u64);
    h.update_u64(config.spec.lsq_size as u64);
    h.update_u64(config.spec.speculation_depth as u64);
    h.update_u64(config.window as u64);
    h.update_u64(match config.target_class {
        None => u64::MAX,
        Some(c) => c as u64,
    });
    h.update_u64(config.gep_filter as u64);
    h.update_u64(config.universal_needs_transient_access as u64);
    h.update_u64(config.secret_filter as u64);
    h.update_u64(config.detect_interference as u64);
    h.update(&canon::encode_function_deps(module, fname));
    h.finish()
}

/// The address of one (function, baseline engine, config) result.
pub fn bh_fingerprint(
    module: &Module,
    fname: &str,
    config: &HauntedConfig,
    engine: HauntedEngine,
) -> Fingerprint {
    let mut h = Fnv128::default();
    h.update_str("bh");
    h.update_u64(match engine {
        HauntedEngine::Pht => 0,
        HauntedEngine::Stl => 1,
    });
    h.update_u64(config.rob as u64);
    h.update_u64(config.lsq as u64);
    // Unlike the Clou knobs, the exploration caps *do* shape the result
    // set (partial exploration stops early), so they address the cache.
    h.update_u64(config.max_paths as u64);
    h.update_u64(config.step_budget);
    h.update(&canon::encode_function_deps(module, fname));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> Module {
        lcm_minic::compile(
            r#"
            int A[16]; int B[4096]; int size; int tmp;
            void victim(int y) { if (y < size) tmp &= B[A[y] * 512]; }
            void other(int y) { if (y < size) tmp &= A[y]; }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn known_vectors() {
        // FNV-1a/128 of the empty string is the offset basis; of "a" is
        // a published test vector.
        assert_eq!(Fnv128::default().finish().0, FNV_OFFSET);
        let mut h = Fnv128::default();
        h.update(b"a");
        assert_eq!(h.finish().0, 0xd228cb696f1a8caf78912b704e4a8964);
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn deterministic_and_function_sensitive() {
        let m = module();
        let cfg = DetectorConfig::default();
        let a = clou_fingerprint(&m, "victim", &cfg, EngineKind::Pht);
        let b = clou_fingerprint(&m, "victim", &cfg, EngineKind::Pht);
        assert_eq!(a, b);
        assert_ne!(a, clou_fingerprint(&m, "other", &cfg, EngineKind::Pht));
        assert_ne!(a, clou_fingerprint(&m, "victim", &cfg, EngineKind::Stl));
    }

    #[test]
    fn findings_knobs_address_the_cache() {
        let m = module();
        let base = DetectorConfig::default();
        let a = clou_fingerprint(&m, "victim", &base, EngineKind::Pht);
        let mut cfg = base.clone();
        cfg.window = 64;
        assert_ne!(a, clou_fingerprint(&m, "victim", &cfg, EngineKind::Pht));
        let mut cfg = base.clone();
        cfg.secret_filter = true;
        assert_ne!(a, clou_fingerprint(&m, "victim", &cfg, EngineKind::Pht));
        let mut cfg = base.clone();
        cfg.spec.rob_size = 64;
        assert_ne!(a, clou_fingerprint(&m, "victim", &cfg, EngineKind::Pht));
    }

    #[test]
    fn speed_knobs_do_not() {
        let m = module();
        let base = DetectorConfig::default();
        let a = clou_fingerprint(&m, "victim", &base, EngineKind::Pht);
        let mut cfg = base.clone();
        cfg.jobs = 7;
        cfg.budgets.max_saeg_nodes = Some(12);
        assert_eq!(a, clou_fingerprint(&m, "victim", &cfg, EngineKind::Pht));
    }

    #[test]
    fn bh_fingerprints_distinct_from_clou() {
        let m = module();
        let a = bh_fingerprint(&m, "victim", &HauntedConfig::default(), HauntedEngine::Pht);
        let b = clou_fingerprint(&m, "victim", &DetectorConfig::default(), EngineKind::Pht);
        assert_ne!(a, b);
        let mut cfg = HauntedConfig::default();
        cfg.jobs = 3; // fan-out width never addresses the cache
        assert_eq!(a, bh_fingerprint(&m, "victim", &cfg, HauntedEngine::Pht));
        cfg.max_paths = 7; // exploration caps do
        assert_ne!(a, bh_fingerprint(&m, "victim", &cfg, HauntedEngine::Pht));
    }
}
