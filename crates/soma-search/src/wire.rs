//! Byte-level primitives of the **binary ledger frame payloads**
//! (ledger format v3, `specs/LEDGER.md`): LEB128 varints, `f64`s as
//! their IEEE-754 bit pattern (lossless, like the JSON facade's
//! round-trip-exact floats), and length-prefixed UTF-8 strings.
//!
//! Everything is little-endian and deterministic: equal values encode
//! to byte-identical sequences, which is what the ledger's byte-identity
//! contracts (resume, thread matrix, migration round-trips) rest on.
//!
//! Decoders never panic on damaged input — every primitive returns a
//! [`WireError`] naming the first violation, so a corrupt frame
//! quarantines instead of aborting a load.

/// A malformed binary record (truncated buffer, varint overflow,
/// invalid UTF-8, trailing bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong, as a human-readable description.
    pub msg: String,
}

impl WireError {
    /// A new error with a human-readable description — public so
    /// higher-level decoders (ledger frames) can report violations in
    /// the same vocabulary.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad wire record: {}", self.msg)
    }
}

impl std::error::Error for WireError {}

/// A cursor over an encoded buffer: decode primitives in sequence,
/// then call [`finish`](Self::finish) to reject trailing garbage.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(format!(
                "truncated {what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// One LEB128 varint (at most 10 bytes for a full u64).
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.take(1, "varint")?[0];
            let low = u64::from(b & 0x7f);
            if shift == 63 && low > 1 {
                return Err(WireError::new("varint overflows u64"));
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::new("varint longer than 10 bytes"))
    }

    /// One `f64` as its 8-byte little-endian bit pattern (bit-exact).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        let bytes: [u8; 8] = self.take(8, "f64")?.try_into().expect("8-byte slice");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// One length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| WireError::new("string length overflow"))?;
        let bytes = self.take(len, "string")?;
        std::str::from_utf8(bytes).map_err(|_| WireError::new("string is not UTF-8"))
    }

    /// One length-prefixed raw byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| WireError::new("bytes length overflow"))?;
        self.take(len, "bytes")
    }

    /// One length-prefixed sequence of varints.
    pub fn varint_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| WireError::new("sequence length overflow"))?;
        // A varint is at least one byte, so a plausible length never
        // exceeds the remaining buffer — reject early instead of
        // letting a corrupt length trigger a huge allocation.
        if n > self.remaining() {
            return Err(WireError::new(format!(
                "sequence length {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        (0..n).map(|_| self.varint()).collect()
    }

    /// Rejects unconsumed bytes — a decoded record must account for
    /// its whole payload.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            return Err(WireError::new(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

/// Appends one LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Appends one `f64` as its 8-byte little-endian bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends one length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends one length-prefixed raw byte slice.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Appends one length-prefixed sequence of varints.
pub fn put_varint_vec(buf: &mut Vec<u8>, items: impl ExactSizeIterator<Item = u64>) {
    put_varint(buf, items.len() as u64);
    for v in items {
        put_varint(buf, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_across_the_range() {
        let samples =
            [0u64, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
        let mut buf = Vec::new();
        for &v in &samples {
            put_varint(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for &v in &samples {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.finish().unwrap();
    }

    #[test]
    fn floats_are_bit_exact() {
        let samples = [0.0, -0.0, 0.1 + 0.2, f64::MIN_POSITIVE, f64::INFINITY, f64::NAN];
        let mut buf = Vec::new();
        for &v in &samples {
            put_f64(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for &v in &samples {
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn strings_and_vecs_round_trip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "fig4@edge/b1");
        put_str(&mut buf, "");
        put_varint_vec(&mut buf, [3u64, 1, 4, 1, 5].into_iter());
        let mut r = Reader::new(&buf);
        assert_eq!(r.str().unwrap(), "fig4@edge/b1");
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.varint_vec().unwrap(), vec![3, 1, 4, 1, 5]);
        r.finish().unwrap();
    }

    #[test]
    fn damage_is_an_error_not_a_panic() {
        // Truncated varint.
        assert!(Reader::new(&[0x80]).varint().is_err());
        // Varint that overflows u64.
        assert!(Reader::new(&[0xff; 10]).varint().is_err());
        // String length past the end of the buffer.
        let mut buf = Vec::new();
        put_varint(&mut buf, 100);
        buf.push(b'x');
        assert!(Reader::new(&buf).str().is_err());
        // Invalid UTF-8.
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(Reader::new(&buf).str().is_err());
        // Corrupt sequence length never allocates gigabytes.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX - 7);
        assert!(Reader::new(&buf).varint_vec().is_err());
        // Trailing bytes fail `finish`.
        let mut r = Reader::new(&[1, 2]);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
