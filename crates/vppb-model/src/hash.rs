//! Stable, structure-aware hashing: configuration fingerprints and
//! content-addressed log identities.
//!
//! Two places in the system need a hash that is *stable across runs and
//! builds* and *injective over the encoded structure*:
//!
//! - the sweep engine deduplicates grid cells by [`SimParams`]
//!   fingerprint, so two distinct configurations must never alias and two
//!   identical ones must never split;
//! - the prediction service content-addresses uploaded logs, so the same
//!   recorded information always maps to the same plan-cache key.
//!
//! Neither can use `std::hash::Hash` directly: `SimParams` carries `f64`
//! cost factors (no `Hash`), `DefaultHasher` is seeded per-process in
//! newer std versions, and hashing a derived `Debug` rendering — the
//! approach this module replaces — silently aliases whenever two values
//! format alike and silently splits whenever formatting changes.
//!
//! [`StableHasher`] therefore encodes values *field-wise*: every integer
//! in fixed-width little-endian form, every string and collection length
//! prefixed (so adjacent fields can never re-associate), and every `f64`
//! through [`canonical_f64_bits`] (`-0.0` normalized to `+0.0`, every NaN
//! to one canonical bit pattern). The algorithm is FNV-1a over the
//! encoded byte stream — fixed offset basis, no per-process seeding.

use crate::config::{
    BaseCosts, Binding, BoundCosts, FaultInjection, LwpPolicy, MachineConfig, ModelKind, SimParams,
    ThreadManip,
};
use crate::dispatch::{DispatchTable, TS_DEFAULT_PRI};
use crate::time::Duration;
use std::fmt;
use std::str::FromStr;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Offset basis of the second, independent stream [`ContentId`] carries.
/// Any constant different from [`FNV_OFFSET`] decorrelates the streams;
/// this one is the 64-bit FNV-0 hash of the string `"vppb-content-id"`.
const FNV_OFFSET_HI: u64 = 0xA8BA_5F2C_16D8_7D41;

/// The canonical bit pattern of an `f64`, for hashing: `-0.0` folds into
/// `+0.0` (they compare equal, so they must hash equal) and every NaN —
/// which a configuration should never contain, but a hash must still be
/// total over — folds into the one canonical quiet NaN.
#[inline]
pub fn canonical_f64_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0 // +0.0; folds -0.0 in
    } else {
        x.to_bits()
    }
}

/// A deterministic, seed-free structural hasher (FNV-1a 64).
///
/// Unlike `std::hash::Hasher` writers, every method here commits to a
/// fixed-width or length-prefixed encoding, so the byte stream — and
/// therefore the hash — is an injective function of the written
/// structure.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorb raw bytes (no length prefix — use [`write_str`] or
    /// [`write_len`] + bytes for variable-length data).
    ///
    /// [`write_str`]: StableHasher::write_str
    /// [`write_len`]: StableHasher::write_len
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorb a `u32` in fixed-width little-endian form.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `u64` in fixed-width little-endian form.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb an `i32` in fixed-width little-endian form.
    pub fn write_i32(&mut self, v: i32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Absorb an `f64` by canonical bit pattern ([`canonical_f64_bits`]).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(canonical_f64_bits(v));
    }

    /// Absorb a collection length (prefix it before the elements so two
    /// adjacent collections can never re-associate their elements).
    pub fn write_len(&mut self, len: usize) {
        self.write_u64(len as u64);
    }

    /// Absorb a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_len(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Types with a stable, structure-injective hash encoding.
pub trait StableHash {
    /// Absorb `self` into the hasher.
    fn stable_hash(&self, h: &mut StableHasher);
}

impl StableHash for Duration {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.nanos());
    }
}

impl StableHash for LwpPolicy {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            LwpPolicy::Fixed(n) => {
                h.write_u8(0);
                h.write_u32(*n);
            }
            LwpPolicy::PerThread => h.write_u8(1),
            LwpPolicy::FollowProgram => h.write_u8(2),
        }
    }
}

impl StableHash for Binding {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            Binding::Unbound => h.write_u8(0),
            Binding::BoundLwp => h.write_u8(1),
            Binding::BoundCpu(cpu) => {
                h.write_u8(2);
                h.write_u32(cpu.0);
            }
        }
    }
}

impl StableHash for ThreadManip {
    fn stable_hash(&self, h: &mut StableHasher) {
        match &self.binding {
            None => h.write_u8(0),
            Some(b) => {
                h.write_u8(1);
                b.stable_hash(h);
            }
        }
        match self.priority {
            None => h.write_u8(0),
            Some(p) => {
                h.write_u8(1);
                h.write_i32(p);
            }
        }
    }
}

impl StableHash for BoundCosts {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_f64(self.create_factor);
        h.write_f64(self.sync_factor);
    }
}

impl StableHash for BaseCosts {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.create.stable_hash(h);
        self.sync_op.stable_hash(h);
        self.uthread_switch.stable_hash(h);
        self.lwp_switch.stable_hash(h);
    }
}

impl StableHash for DispatchTable {
    fn stable_hash(&self, h: &mut StableHasher) {
        let rows = self.rows();
        h.write_len(rows.len());
        for r in rows {
            r.quantum.stable_hash(h);
            h.write_i32(r.tqexp);
            h.write_i32(r.slpret);
        }
    }
}

impl StableHash for ModelKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            ModelKind::SolarisTs => h.write_u8(0),
            ModelKind::AsyncPool => h.write_u8(1),
        }
    }
}

impl StableHash for FaultInjection {
    fn stable_hash(&self, h: &mut StableHasher) {
        for opt in
            [self.leak_mutex, self.double_charge_cpu, self.leak_rw_reader, self.skip_barrier_waker]
        {
            match opt {
                None => h.write_u8(0),
                Some(v) => {
                    h.write_u8(1);
                    h.write_u32(v);
                }
            }
        }
        match self.panic_after_events {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                h.write_u64(v);
            }
        }
    }
}

impl StableHash for MachineConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u32(self.cpus);
        self.lwps.stable_hash(h);
        self.comm_delay.stable_hash(h);
        self.dispatch.stable_hash(h);
        h.write_bool(self.time_slicing);
        // The fixed value of a retired knob (every new LWP starts at the
        // TS default priority), so fingerprints, and with them memo keys
        // spilled by older stores, stay what they were.
        h.write_i32(TS_DEFAULT_PRI);
        self.base_costs.stable_hash(h);
        self.bound_costs.stable_hash(h);
        self.migration_penalty.stable_hash(h);
        self.model.stable_hash(h);
        // The same for two more retired knobs (rwlock writer preference
        // on, priority inheritance off).
        h.write_bool(true);
        h.write_bool(false);
    }
}

impl StableHash for SimParams {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.machine.stable_hash(h);
        h.write_len(self.manips.len());
        for (tid, manip) in &self.manips {
            h.write_u32(tid.0);
            manip.stable_hash(h);
        }
        h.write_bool(self.barrier_aware_broadcast);
        self.faults.stable_hash(h);
    }
}

impl SimParams {
    /// Stable field-wise fingerprint of this configuration — equal
    /// parameters always fingerprint equal, distinct parameters never
    /// alias through formatting. Used by the sweep deduplicator and as
    /// the configuration half of prediction-cache keys.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        self.stable_hash(&mut h);
        h.finish()
    }
}

/// A 128-bit content address: two independent FNV-1a streams over the
/// same bytes. Renders as 32 lowercase hex digits — the `id` the
/// prediction service hands back from `POST /logs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentId(pub u128);

impl ContentId {
    /// Content-address a byte string.
    pub fn of_bytes(bytes: &[u8]) -> ContentId {
        let mut h = ContentHasher::new();
        h.write(bytes);
        h.finish()
    }
}

/// The two FNV-1a streams behind a [`ContentId`], fed piecewise: writing
/// `a` and then `b` leaves the state writing `a ++ b` leaves, so a copy
/// taken after a prefix resumes the hash of anything that extends it.
#[derive(Debug, Clone, Copy)]
pub struct ContentHasher {
    lo: u64,
    hi: u64,
}

impl Default for ContentHasher {
    fn default() -> ContentHasher {
        ContentHasher::new()
    }
}

impl ContentHasher {
    /// The state of the empty byte string.
    pub fn new() -> ContentHasher {
        ContentHasher { lo: FNV_OFFSET, hi: FNV_OFFSET_HI }
    }

    /// Absorb `bytes`. Both streams advance in one loop: their multiply
    /// chains are independent, so the CPU overlaps them.
    pub fn write(&mut self, bytes: &[u8]) {
        let (mut lo, mut hi) = (self.lo, self.hi);
        for &b in bytes {
            lo = (lo ^ b as u64).wrapping_mul(FNV_PRIME);
            hi = (hi ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        (self.lo, self.hi) = (lo, hi);
    }

    /// The id of everything written so far.
    pub fn finish(&self) -> ContentId {
        ContentId(((self.hi as u128) << 64) | self.lo as u128)
    }
}

impl fmt::Display for ContentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl ContentId {
    /// The two-hex-digit shard prefix the disk-backed content store
    /// fans objects out under (256 shards).
    pub fn shard_prefix(&self) -> String {
        format!("{:02x}", (self.0 >> 120) as u8)
    }
}

impl FromStr for ContentId {
    type Err = String;

    fn from_str(s: &str) -> Result<ContentId, String> {
        if s.len() != 32 {
            return Err(format!("content id must be 32 hex digits, got {}", s.len()));
        }
        u128::from_str_radix(s, 16).map(ContentId).map_err(|e| format!("bad content id: {e}"))
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) lookup table,
/// built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of a byte string — the per-object and per-journal-record
/// integrity check of the durable store. Unlike the FNV streams above it
/// detects *burst* damage (torn writes, zero-filled tails) with guaranteed
/// Hamming properties, which is what an fsck wants from a footer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ThreadId;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32 check value: crc32("123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Single-bit damage anywhere must change the CRC.
        let base = crc32(b"durable object payload");
        let mut flipped = b"durable object payload".to_vec();
        flipped[7] ^= 0x10;
        assert_ne!(crc32(&flipped), base);
    }

    #[test]
    fn shard_prefix_is_the_leading_hex_pair() {
        let id = ContentId::of_bytes(b"sharded");
        assert_eq!(id.shard_prefix(), id.to_string()[..2]);
    }

    #[test]
    fn equal_params_fingerprint_equal() {
        assert_eq!(SimParams::cpus(8).fingerprint(), SimParams::cpus(8).fingerprint());
        let a = SimParams::cpus(4).override_priority(ThreadId(3), 50);
        let b = SimParams::cpus(4).override_priority(ThreadId(3), 50);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_field_separates_the_fingerprint() {
        let base = SimParams::cpus(8);
        let mut variants = Vec::new();
        let mut v = base.clone();
        v.machine.cpus = 7;
        variants.push(v);
        let mut v = base.clone();
        v.machine.lwps = LwpPolicy::Fixed(8);
        variants.push(v);
        let mut v = base.clone();
        v.machine.comm_delay = Duration::from_micros(2);
        variants.push(v);
        let mut v = base.clone();
        v.machine.time_slicing = false;
        variants.push(v);
        let mut v = base.clone();
        v.machine.base_costs.sync_op = Duration::from_micros(3);
        variants.push(v);
        let mut v = base.clone();
        v.machine.bound_costs.sync_factor = 5.900001;
        variants.push(v);
        let mut v = base.clone();
        v.machine.migration_penalty = Duration::from_micros(10);
        variants.push(v);
        let mut v = base.clone();
        v.barrier_aware_broadcast = false;
        variants.push(v);
        let mut v = base.clone();
        v.machine.model = ModelKind::AsyncPool;
        variants.push(v);
        let mut v = base.clone();
        v.faults.leak_mutex = Some(0);
        variants.push(v);
        let mut v = base.clone();
        v.faults.leak_rw_reader = Some(0);
        variants.push(v);
        let mut v = base.clone();
        v.faults.skip_barrier_waker = Some(0);
        variants.push(v);
        variants.push(base.clone().override_priority(ThreadId(1), 10));
        let base_fp = base.fingerprint();
        let mut fps = vec![base_fp];
        for v in &variants {
            let fp = v.fingerprint();
            assert_ne!(fp, base_fp, "variant aliases the base: {v:?}");
            fps.push(fp);
        }
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), variants.len() + 1, "two variants alias each other");
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Memo keys spilled to a `--store` embed these, so a change here
        // silently turns every stored prediction into a miss.
        let mut async_pool = SimParams::cpus(4);
        async_pool.machine.model = ModelKind::AsyncPool;
        async_pool.machine.lwps = LwpPolicy::Fixed(3);
        let mut mixed = SimParams::cpus(2).override_priority(ThreadId(3), 50);
        mixed.machine.lwps = LwpPolicy::FollowProgram;
        mixed.machine.comm_delay = Duration::from_micros(7);
        mixed.faults.leak_mutex = Some(1);
        let pinned = [
            (SimParams::cpus(8), 0xad07_3ca7_fc8c_5ab0),
            (SimParams::cpus(1), 0x99e5_c78f_7a86_94f3),
            (async_pool, 0x29bb_f287_7f67_34ff),
            (mixed, 0x5824_6922_53fb_4512),
        ];
        for (params, fp) in pinned {
            assert_eq!(params.fingerprint(), fp, "{params:?}");
        }
    }

    #[test]
    fn negative_zero_cost_factor_folds_into_positive_zero() {
        let mut a = SimParams::cpus(2);
        a.machine.bound_costs.create_factor = 0.0;
        let mut b = SimParams::cpus(2);
        b.machine.bound_costs.create_factor = -0.0;
        assert_eq!(a.fingerprint(), b.fingerprint(), "-0.0 == 0.0 must hash equal");
    }

    #[test]
    fn all_nans_hash_alike_and_unlike_numbers() {
        let bits = canonical_f64_bits(f64::NAN);
        assert_eq!(canonical_f64_bits(-f64::NAN), bits);
        assert_eq!(canonical_f64_bits(f64::from_bits(0x7FF8_0000_DEAD_BEEF)), bits);
        assert_ne!(canonical_f64_bits(1.0), bits);
    }

    #[test]
    fn manip_count_and_content_are_framed() {
        // One thread with two overrides must not alias two threads with
        // one override each — the length prefix and per-entry ids frame
        // the map injectively.
        let one = SimParams::cpus(2)
            .override_priority(ThreadId(1), 10)
            .bind_to_cpu(ThreadId(1), crate::ids::CpuId(0));
        let two = SimParams::cpus(2)
            .override_priority(ThreadId(1), 10)
            .bind_to_cpu(ThreadId(2), crate::ids::CpuId(0));
        assert_ne!(one.fingerprint(), two.fingerprint());
    }

    #[test]
    fn content_id_round_trips_and_separates() {
        let a = ContentId::of_bytes(b"one recorded log");
        let b = ContentId::of_bytes(b"one recorded log!");
        assert_ne!(a, b);
        assert_eq!(a, ContentId::of_bytes(b"one recorded log"));
        let rendered = a.to_string();
        assert_eq!(rendered.len(), 32);
        assert_eq!(rendered.parse::<ContentId>().unwrap(), a);
        assert!("nope".parse::<ContentId>().is_err());
    }

    #[test]
    fn content_ids_are_pinned() {
        // Taken from the two-pass implementation: the high half is
        // FNV-1a from `FNV_OFFSET_HI`, the low half is `StableHasher`.
        let pattern: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 256) as u8).collect();
        for (bytes, want) in [
            (&b""[..], "a8ba5f2c16d87d41cbf29ce484222325"),
            (b"one recorded log", "d4812a50b7686143aad1aff13205eb6f"),
            (&pattern, "0d149478af4614d1c4c806d8c8888735"),
        ] {
            let id = ContentId::of_bytes(bytes);
            assert_eq!(id.to_string(), want);
            let mut lo = StableHasher::new();
            lo.write_bytes(bytes);
            assert_eq!(id.0 as u64, lo.finish());
        }
    }

    #[test]
    fn piecewise_writes_hash_their_concatenation() {
        let pattern: Vec<u8> = (0..300u32).map(|i| (i * 13 % 256) as u8).collect();
        let whole = ContentId::of_bytes(&pattern);
        for cut in [0, 1, 7, 150, 299, 300] {
            let mut h = ContentHasher::new();
            h.write(&pattern[..cut]);
            let resumed = h;
            h.write(&pattern[cut..]);
            assert_eq!(h.finish(), whole, "cut {cut}");
            assert_eq!(resumed.finish(), ContentId::of_bytes(&pattern[..cut]), "cut {cut}");
        }
    }
}
