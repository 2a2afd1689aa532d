//! Binary codec for WAL payloads: the delta batches of one group
//! commit.
//!
//! Hand-rolled little-endian encoding (no external dependencies, fully
//! deterministic — the same batch always encodes to the same bytes, so
//! CRC comparisons and replay are reproducible):
//!
//! ```text
//! payload   := batch_count:u32 batch*
//! batch     := str(relation) delta_count:u32 delta*
//! delta     := 0x00 row:u32 packed           (insert)
//!            | 0x01 row:u32 packed           (delete, packed = victim)
//!            | 0x02 row:u32 packed packed    (update, old then new)
//! str       := len:u32 utf8-bytes
//! packed    := a tuple as pmv_storage::packed writes a row:
//!              its byte length in LEB128, then its values packed
//! ```
//!
//! The codec has no value grammar: [`packed::put_row`] writes a tuple
//! and the checked [`packed::take_row`] reads it back.
//!
//! Deletes and updates carry full before-images even though replay only
//! strictly needs the row id: the redundancy lets recovery cross-check
//! the heap against the log and keeps the format useful for audit
//! tooling.

use pmv_storage::{packed, Delta, DeltaBatch, RowId, Tuple, Value};

/// Codec failure: the payload bytes do not parse as delta batches.
pub use pmv_storage::packed::DecodeError;

type Result<T> = std::result::Result<T, DecodeError>;

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode the delta batches of one commit into a WAL payload.
pub fn encode_batches(batches: &[DeltaBatch]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&(batches.len() as u32).to_le_bytes());
    for b in batches {
        put_str(&mut out, b.relation());
        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
        for d in b.deltas() {
            let (tag, row, tuples) = match d {
                Delta::Insert { row, tuple } => (0x00, row, [Some(tuple), None]),
                Delta::Delete { row, tuple } => (0x01, row, [Some(tuple), None]),
                Delta::Update { row, old, new } => (0x02, row, [Some(old), Some(new)]),
            };
            out.push(tag);
            out.extend_from_slice(&row.0.to_le_bytes());
            for t in tuples.into_iter().flatten() {
                packed::put_row(&mut out, t.values());
            }
        }
    }
    out
}

/// A cursor over payload bytes with bounds-checked primitive reads.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, off: 0 }
    }

    /// Error unless every byte has been read.
    pub(crate) fn finish(&self, what: &str) -> Result<()> {
        match self.bytes.len() - self.off {
            0 => Ok(()),
            n => Err(DecodeError(format!("{n} trailing bytes after {what}"))),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| DecodeError(format!("truncated payload at offset {}", self.off)))?;
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// An element count, rejected when it exceeds the bytes left (every
    /// element takes at least one), so a corrupt count never allocates.
    pub(crate) fn count(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.bytes.len() - self.off {
            return Err(DecodeError(format!("count {n} exceeds payload")));
        }
        Ok(n)
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("non-UTF-8 string".to_string()))
    }

    /// A `packed` production: one row's values, checked.
    pub(crate) fn row(&mut self) -> Result<Vec<Value>> {
        let (values, n) = packed::take_row(&self.bytes[self.off..])
            .map_err(|e| DecodeError(format!("{} at payload offset {}", e.0, self.off)))?;
        self.off += n;
        Ok(values)
    }
}

/// Decode a WAL payload back into delta batches.
pub fn decode_batches(payload: &[u8]) -> Result<Vec<DeltaBatch>> {
    let mut c = Cursor::new(payload);
    let nbatches = c.count()?;
    let mut batches = Vec::with_capacity(nbatches);
    for _ in 0..nbatches {
        let relation = c.str()?;
        let ndeltas = c.count()?;
        let mut batch = DeltaBatch::new(relation);
        for _ in 0..ndeltas {
            let tag = c.u8()?;
            let row = RowId(c.u32()?);
            let delta = match tag {
                0x00 => Delta::Insert {
                    row,
                    tuple: Tuple::new(c.row()?),
                },
                0x01 => Delta::Delete {
                    row,
                    tuple: Tuple::new(c.row()?),
                },
                0x02 => Delta::Update {
                    row,
                    old: Tuple::new(c.row()?),
                    new: Tuple::new(c.row()?),
                },
                other => return Err(DecodeError(format!("unknown delta tag {other:#x}"))),
            };
            batch.push(delta);
        }
        batches.push(batch);
    }
    c.finish("last batch")?;
    Ok(batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_storage::tuple;

    fn sample() -> Vec<DeltaBatch> {
        let mut a = DeltaBatch::new("r");
        a.push(Delta::Insert {
            row: RowId(0),
            tuple: tuple![1i64, "alpha", 1.5f64],
        });
        a.push(Delta::Delete {
            row: RowId(7),
            tuple: Tuple::new(vec![Value::Null, Value::str(""), Value::from(-0.0)]),
        });
        a.push(Delta::Update {
            row: RowId(3),
            old: tuple![2i64, "x", 0.0f64],
            new: tuple![2i64, "y", f64::NAN],
        });
        let mut b = DeltaBatch::new("s");
        b.push(Delta::Insert {
            row: RowId(u32::MAX),
            tuple: tuple![i64::MIN, "π — unicode", f64::INFINITY],
        });
        vec![a, b, DeltaBatch::new("empty")]
    }

    #[test]
    fn roundtrip_preserves_batches() {
        let batches = sample();
        let bytes = encode_batches(&batches);
        let back = decode_batches(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        for (orig, dec) in batches.iter().zip(&back) {
            assert_eq!(orig.relation(), dec.relation());
            assert_eq!(orig.deltas().len(), dec.deltas().len());
            // A double is canonical, so NaN equals NaN.
            assert_eq!(orig.deltas(), dec.deltas());
        }
    }

    /// Bytes on disk may hold `-0.0` or a NaN with a payload under the
    /// packed `Double` tag (a checkpoint's rows are packed the same
    /// way). Each decodes to the canonical value, which re-encodes to the
    /// canonical bytes.
    #[test]
    fn non_canonical_doubles_decode_to_canonical_values() {
        // One batch of `r`: an insert at row 5 of the one value `bits`,
        // a 9-byte row: a tag byte of the `Double` tag (9) and "no field"
        // (15), then the bits.
        let payload = |bits: u64| {
            let mut out = 1u32.to_le_bytes().to_vec();
            put_str(&mut out, "r");
            out.extend_from_slice(&1u32.to_le_bytes());
            out.push(0x00);
            out.extend_from_slice(&5u32.to_le_bytes());
            out.extend_from_slice(&[9, 0xf9]);
            out.extend_from_slice(&bits.to_le_bytes());
            out
        };
        for (raw, canonical) in [
            ((-0.0f64).to_bits(), 0.0f64.to_bits()),
            (0xfff0_0000_0000_0001, f64::NAN.to_bits()),
            (0x7ff0_0000_0000_0002, f64::NAN.to_bits()),
        ] {
            let back = decode_batches(&payload(raw)).unwrap();
            let Delta::Insert { tuple, .. } = &back[0].deltas()[0] else {
                panic!("{back:?}");
            };
            let Value::Double(d) = tuple.get(0) else {
                panic!("{tuple:?}");
            };
            assert_eq!(d.to_bits(), canonical, "{raw:#x}");
            assert_eq!(encode_batches(&back), payload(canonical), "{raw:#x}");
        }
    }

    #[test]
    fn truncated_and_corrupt_payloads_error_not_panic() {
        let bytes = encode_batches(&sample());
        for cut in 0..bytes.len() {
            // Every strict prefix must fail cleanly (trailing-byte check
            // catches prefixes that happen to parse).
            assert!(decode_batches(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut garbage = bytes.clone();
        garbage[0] = 0xFF; // absurd batch count
        assert!(decode_batches(&garbage).is_err());
    }

    #[test]
    fn empty_commit_encodes() {
        let bytes = encode_batches(&[]);
        assert_eq!(decode_batches(&bytes).unwrap(), Vec::<DeltaBatch>::new());
    }
}
