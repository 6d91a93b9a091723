//! The pinned hash behind cell-cache keys and the model fingerprint.
//! Shared with `build.rs`, which includes this file as a module.

/// 64-bit FNV-1a. The standard library's `DefaultHasher` is not stable
/// across releases; cache keys must be, so the hash is pinned here.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
