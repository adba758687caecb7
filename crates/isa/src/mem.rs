//! Flat byte-addressable simulated memory.

use std::ops::Range;

/// Little-endian flat memory used by the functional interpreter.
///
/// Addresses start at zero; workloads conventionally place data from
/// `0x1000` upward. Accesses outside the allocated size panic — a
/// simulated segfault that fails tests loudly instead of silently. The
/// default image is empty.
///
/// # Examples
///
/// ```
/// use eve_isa::Memory;
/// let mut mem = Memory::new(4096);
/// mem.store_u32(0x100, 0xDEAD_BEEF);
/// assert_eq!(mem.load_u32(0x100), 0xDEAD_BEEF);
/// assert_eq!(mem.load_u8(0x100), 0xEF); // little endian
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Memory {
    bytes: Vec<u8>,
}

impl Memory {
    /// Allocates `size` bytes of zeroed memory. They come from the
    /// allocator's zeroed path, so a large image's pages become
    /// resident only when first written; a clone writes them all.
    #[must_use]
    pub fn new(size: usize) -> Self {
        Self {
            bytes: vec![0; size],
        }
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// The byte range `addr..addr + len`, if it lies inside memory.
    fn span(&self, addr: u64, len: u64) -> Option<Range<usize>> {
        let a = addr as usize;
        let end = a.checked_add(len as usize)?;
        (end <= self.bytes.len()).then_some(a..end)
    }

    #[cold]
    fn out_of_bounds(&self, addr: u64, len: u64) -> ! {
        panic!(
            "memory access at {addr:#x}+{len} out of bounds ({} bytes)",
            self.bytes.len()
        )
    }

    fn slice(&self, addr: u64, len: u64) -> &[u8] {
        match self.span(addr, len) {
            Some(r) => &self.bytes[r],
            None => self.out_of_bounds(addr, len),
        }
    }

    fn slice_mut(&mut self, addr: u64, len: u64) -> &mut [u8] {
        match self.span(addr, len) {
            Some(r) => &mut self.bytes[r],
            None => self.out_of_bounds(addr, len),
        }
    }

    /// Loads one byte.
    #[must_use]
    pub fn load_u8(&self, addr: u64) -> u8 {
        self.slice(addr, 1)[0]
    }

    /// Loads a 16-bit little-endian value.
    #[must_use]
    pub fn load_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.slice(addr, 2).try_into().expect("len 2"))
    }

    /// Loads a 32-bit little-endian value.
    #[must_use]
    pub fn load_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.slice(addr, 4).try_into().expect("len 4"))
    }

    /// Loads a 64-bit little-endian value.
    #[must_use]
    pub fn load_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.slice(addr, 8).try_into().expect("len 8"))
    }

    /// Stores one byte.
    pub fn store_u8(&mut self, addr: u64, value: u8) {
        self.slice_mut(addr, 1)[0] = value;
    }

    /// Stores a 16-bit little-endian value.
    pub fn store_u16(&mut self, addr: u64, value: u16) {
        self.slice_mut(addr, 2)
            .copy_from_slice(&value.to_le_bytes());
    }

    /// Stores a 32-bit little-endian value.
    pub fn store_u32(&mut self, addr: u64, value: u32) {
        self.slice_mut(addr, 4)
            .copy_from_slice(&value.to_le_bytes());
    }

    /// Stores a 64-bit little-endian value.
    pub fn store_u64(&mut self, addr: u64, value: u64) {
        self.slice_mut(addr, 8)
            .copy_from_slice(&value.to_le_bytes());
    }

    /// Loads consecutive 32-bit words starting at `addr` into `dst`,
    /// checking the span's bounds once. A span that runs past the end
    /// loads word by word instead, so it panics at its first
    /// out-of-bounds word just as [`Self::load_u32`] would there; an
    /// empty span touches nothing.
    pub(crate) fn load_u32_span(&self, addr: u64, dst: &mut [u32]) {
        match self.span(addr, dst.len() as u64 * 4) {
            Some(r) => {
                for (d, w) in dst.iter_mut().zip(self.bytes[r].chunks_exact(4)) {
                    *d = u32::from_le_bytes(w.try_into().expect("len 4"));
                }
            }
            None => {
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = self.load_u32(addr + i as u64 * 4);
                }
            }
        }
    }

    /// Stores `src` as consecutive 32-bit words starting at `addr`, with
    /// the bounds checks of [`Self::load_u32_span`]: once for the span,
    /// or word by word up to the first out-of-bounds word.
    pub(crate) fn store_u32_span(&mut self, addr: u64, src: &[u32]) {
        match self.span(addr, src.len() as u64 * 4) {
            Some(r) => {
                for (w, v) in self.bytes[r].chunks_exact_mut(4).zip(src) {
                    w.copy_from_slice(&v.to_le_bytes());
                }
            }
            None => {
                for (i, &v) in src.iter().enumerate() {
                    self.store_u32(addr + i as u64 * 4, v);
                }
            }
        }
    }

    /// Reads `count` consecutive 32-bit words starting at `addr`.
    #[must_use]
    pub fn load_u32_slice(&self, addr: u64, count: usize) -> Vec<u32> {
        let mut words = vec![0; count];
        self.load_u32_span(addr, &mut words);
        words
    }

    /// Writes consecutive 32-bit words starting at `addr`.
    pub fn store_u32_slice(&mut self, addr: u64, values: &[u32]) {
        self.store_u32_span(addr, values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut m = Memory::new(64);
        m.store_u8(0, 0xAB);
        m.store_u16(2, 0xCDEF);
        m.store_u32(4, 0x1234_5678);
        m.store_u64(8, 0x0102_0304_0506_0708);
        assert_eq!(m.load_u8(0), 0xAB);
        assert_eq!(m.load_u16(2), 0xCDEF);
        assert_eq!(m.load_u32(4), 0x1234_5678);
        assert_eq!(m.load_u64(8), 0x0102_0304_0506_0708);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(8);
        m.store_u32(0, 0xAABB_CCDD);
        assert_eq!(m.load_u8(0), 0xDD);
        assert_eq!(m.load_u8(3), 0xAA);
    }

    #[test]
    fn slice_helpers() {
        let mut m = Memory::new(64);
        m.store_u32_slice(16, &[1, 2, 3]);
        assert_eq!(m.load_u32_slice(16, 3), vec![1, 2, 3]);
    }

    #[test]
    fn spans_check_bounds_once_and_empty_spans_touch_nothing() {
        let mut m = Memory::new(16);
        m.store_u32_span(4, &[7, 8, 9]);
        let mut words = [0; 3];
        m.load_u32_span(4, &mut words);
        assert_eq!(words, [7, 8, 9]);
        m.load_u32_span(1 << 40, &mut []);
        m.store_u32_span(u64::MAX, &[]);
    }

    #[test]
    fn a_span_past_the_end_stores_word_by_word_to_its_first_outside_word() {
        let mut m = Memory::new(16);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.store_u32_span(8, &[1, 2, 3]);
        }));
        let msg = r.expect_err("the third word is out of bounds");
        let msg = msg.downcast_ref::<String>().expect("a formatted message");
        assert!(
            msg.contains("memory access at 0x10+4 out of bounds"),
            "{msg}"
        );
        assert_eq!(m.load_u32_slice(8, 2), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let m = Memory::new(16);
        let _ = m.load_u32(14);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn overflow_address_panics() {
        let m = Memory::new(16);
        let _ = m.load_u64(u64::MAX - 2);
    }
}
