//! WAL record format: length-prefixed, checksummed, LSN-stamped.
//!
//! On-disk layout of one record (all integers little-endian):
//!
//! ```text
//! [len: u32] [crc: u32] [lsn: u64] [payload: len-8 bytes]
//! ```
//!
//! `len` counts the LSN plus payload (so a record occupies `8 + len`
//! bytes) and the CRC-32 covers the same `len` bytes, making the header
//! self-validating: a torn tail either truncates the length prefix, cuts
//! the body short, or corrupts bytes under the checksum — all three are
//! detected by [`scan`], which returns the clean prefix and the offset
//! at which to truncate. Records never span segment files.
//!
//! The LSN is a monotonically increasing commit sequence number assigned
//! under the master write lock, so within a segment LSNs are
//! strictly increasing and contiguous; replay additionally stops at the
//! first gap (a gap means a later segment survived while an earlier
//! record did not — only the contiguous durable prefix is recovered).

/// Maximum sane record body (LSN + payload) — a length prefix beyond
/// this is treated as torn-tail garbage rather than attempted as an
/// allocation.
pub const MAX_RECORD_LEN: u32 = 1 << 30;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 checksum of `data` (IEEE polynomial, as in zlib).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Commit sequence number.
    pub lsn: u64,
    /// Opaque payload (the codec's serialized delta batches).
    pub payload: Vec<u8>,
}

/// Encode a record into its on-disk byte form.
pub fn encode(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let len = 8 + payload.len();
    let mut body = Vec::with_capacity(8 + len);
    body.extend_from_slice(&(len as u32).to_le_bytes());
    body.extend_from_slice(&[0u8; 4]); // crc placeholder
    body.extend_from_slice(&lsn.to_le_bytes());
    body.extend_from_slice(payload);
    let crc = crc32(&body[8..]);
    body[4..8].copy_from_slice(&crc.to_le_bytes());
    body
}

/// Result of scanning a segment's bytes: every valid record in order,
/// plus the byte offset of the first invalid/torn record (== the length
/// of the clean prefix; the caller truncates the file there).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scan {
    /// Valid records, in file order.
    pub records: Vec<Record>,
    /// Bytes of clean prefix; anything after this is a torn tail.
    pub clean_len: u64,
    /// True when the scan stopped before the end of the buffer (a torn
    /// or corrupt record was found and everything after it discarded).
    pub torn: bool,
}

/// Scan a segment's bytes, stopping at the first record that is
/// incomplete (torn length prefix or short body) or fails its CRC.
pub fn scan(bytes: &[u8]) -> Scan {
    let mut records = Vec::new();
    let mut off = 0usize;
    loop {
        let rest = &bytes[off..];
        if rest.is_empty() {
            return Scan {
                records,
                clean_len: off as u64,
                torn: false,
            };
        }
        if rest.len() < 8 {
            break; // torn header
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if !(8..=MAX_RECORD_LEN).contains(&len) || rest.len() < 8 + len as usize {
            break; // nonsense length or short body
        }
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let body = &rest[8..8 + len as usize];
        if crc32(body) != crc {
            break; // corrupt
        }
        let lsn = u64::from_le_bytes(body[0..8].try_into().unwrap());
        records.push(Record {
            lsn,
            payload: body[8..].to_vec(),
        });
        off += 8 + len as usize;
    }
    Scan {
        records,
        clean_len: off as u64,
        torn: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // zlib's crc32("123456789") reference value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_scan_roundtrip() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode(1, b"alpha"));
        bytes.extend_from_slice(&encode(2, b""));
        bytes.extend_from_slice(&encode(3, b"gamma"));
        let scan = scan(&bytes);
        assert!(!scan.torn);
        assert_eq!(scan.clean_len as usize, bytes.len());
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[0].lsn, 1);
        assert_eq!(scan.records[0].payload, b"alpha");
        assert_eq!(scan.records[1].payload, b"");
        assert_eq!(scan.records[2].lsn, 3);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode(1, b"first"));
        let clean = bytes.len();
        bytes.extend_from_slice(&encode(2, b"second"));
        // Cutting anywhere strictly inside the second record must yield
        // exactly the first record and a clean_len at its boundary.
        for cut in clean..bytes.len() {
            let s = scan(&bytes[..cut]);
            if cut == clean {
                assert!(!s.torn);
            } else {
                assert!(s.torn, "cut={cut}");
            }
            assert_eq!(s.records.len(), 1, "cut={cut}");
            assert_eq!(s.clean_len as usize, clean, "cut={cut}");
        }
    }

    #[test]
    fn corrupt_byte_stops_the_scan() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode(1, b"first"));
        let boundary = bytes.len();
        bytes.extend_from_slice(&encode(2, b"second"));
        bytes.extend_from_slice(&encode(3, b"third"));
        // Flip one payload byte of record 2: records 2 AND 3 are
        // discarded (prefix rule — nothing after a bad record is
        // trusted).
        bytes[boundary + 8 + 8] ^= 0x40;
        let s = scan(&bytes);
        assert!(s.torn);
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.clean_len as usize, boundary);
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut bytes = encode(1, b"ok");
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        let s = scan(&bytes);
        assert!(s.torn);
        assert_eq!(s.records.len(), 1);
    }
}
