//! The one wire encoding: DSM pages are arrays of these bytes, and a
//! CHAOS message is a run of them in the receiver's inbox.

/// Plain-old-data element types storable in shared memory and sendable
/// in a CHAOS message.
///
/// Elements are fixed-size and encoded little-endian, so pages are just
/// byte arrays and diffs are representation-level — the same property the
/// real system gets from raw memory.
pub trait Pod: Copy + Send + Sync + 'static {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Encode `self` little-endian into the first `SIZE` bytes of `dst`.
    fn store(self, dst: &mut [u8]);
    /// Decode a value from the first `SIZE` bytes of `src`.
    fn load(src: &[u8]) -> Self;
}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline(always)]
            fn store(self, dst: &mut [u8]) {
                dst[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }
            #[inline(always)]
            fn load(src: &[u8]) -> Self {
                <$t>::from_le_bytes(src[..Self::SIZE].try_into().unwrap())
            }
        }
    )*};
}

impl_pod!(f64, f32, i64, u64, i32, u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_roundtrip() {
        let mut buf = [0u8; 8];
        3.25f64.store(&mut buf);
        assert_eq!(f64::load(&buf), 3.25);
        let mut b4 = [0u8; 4];
        (-7i32).store(&mut b4);
        assert_eq!(i32::load(&b4), -7);
    }
}
