//! LEB128 variable-length integers and delta coding for sorted id sequences.
//!
//! Posting lists store document ids as deltas between consecutive (sorted)
//! ids, then varint-encode the deltas: small gaps — the common case for
//! popular tags — take one byte instead of four.

/// Appends `v` to `out` as an unsigned LEB128 varint (1–5 bytes for `u32`).
pub fn write_u32(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` as an unsigned LEB128 varint (1–10 bytes for `u64`).
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a `u32` varint from the front of `buf`, advancing it.
///
/// Returns `None` on truncated input or overflow (more than 5 bytes).
pub fn read_u32(buf: &mut &[u8]) -> Option<u32> {
    let mut result: u32 = 0;
    let mut shift = 0u32;
    for _ in 0..5 {
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        result |= ((byte & 0x7F) as u32) << shift;
        if byte & 0x80 == 0 {
            return Some(result);
        }
        shift += 7;
    }
    None
}

/// Reads a `u64` varint from the front of `buf`, advancing it.
pub fn read_u64(buf: &mut &[u8]) -> Option<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    for _ in 0..10 {
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        result |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(result);
        }
        shift += 7;
    }
    None
}

/// Number of bytes `write_u32` would emit for `v`.
pub fn len_u32(v: u32) -> usize {
    match v {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0xFFF_FFFF => 4,
        _ => 5,
    }
}

/// Delta-encodes a strictly increasing sequence of ids into varints.
///
/// The first id is stored verbatim, each following id as `id − prev`.
///
/// # Panics
/// Panics (debug) if the input is not strictly increasing.
pub fn encode_sorted(ids: &[u32], out: &mut Vec<u8>) {
    let mut prev = 0u32;
    for (i, &id) in ids.iter().enumerate() {
        if i == 0 {
            write_u32(out, id);
        } else {
            debug_assert!(id > prev, "ids must be strictly increasing");
            write_u32(out, id - prev);
        }
        prev = id;
    }
}

/// Decodes `count` delta-varint ids produced by [`encode_sorted`].
pub fn decode_sorted(buf: &mut &[u8], count: usize) -> Option<Vec<u32>> {
    let mut out = Vec::with_capacity(count);
    decode_sorted_into(buf, count, &mut out)?;
    Some(out)
}

/// Like [`decode_sorted`], decoding into a caller-owned buffer (cleared
/// first). Reuses the buffer's capacity, so a warm decode loop — e.g. a
/// posting cursor walking blocks — performs no allocation.
///
/// Decodes **word-wise** where it can: dense posting blocks are dominated
/// by single-byte deltas, and eight of those are recognized with one `u64`
/// load and one mask test (no continuation bit set in the word), then
/// prefix-summed without re-entering the per-byte loop. Runs of multi-byte
/// deltas fall back to the scalar decoder one varint at a time, so mixed
/// streams decode exactly as before. On corrupt input (`None`) the buffer
/// position is unspecified, as with the scalar path.
pub fn decode_sorted_into(buf: &mut &[u8], count: usize, out: &mut Vec<u32>) -> Option<()> {
    out.clear();
    out.reserve(count);
    let mut prev = 0u32;
    let mut i = 0usize;
    while i < count {
        let bytes = *buf;
        if count - i >= 8 && bytes.len() >= 8 {
            let word = u64::from_le_bytes(bytes[..8].try_into().unwrap());
            if word & 0x8080_8080_8080_8080 == 0 {
                // Eight terminal bytes: eight 1-byte varints in one word.
                for j in 0..8 {
                    let d = ((word >> (8 * j)) & 0x7F) as u32;
                    let id = if i + j == 0 { d } else { prev.checked_add(d)? };
                    out.push(id);
                    prev = id;
                }
                *buf = &bytes[8..];
                i += 8;
                continue;
            }
        }
        let d = read_u32(buf)?;
        let id = if i == 0 { d } else { prev.checked_add(d)? };
        out.push(id);
        prev = id;
        i += 1;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_round_trip_corner_values() {
        for v in [0u32, 1, 127, 128, 16_383, 16_384, u32::MAX - 1, u32::MAX] {
            let mut buf = Vec::new();
            write_u32(&mut buf, v);
            assert_eq!(buf.len(), len_u32(v), "length mismatch for {v}");
            let mut s = buf.as_slice();
            assert_eq!(read_u32(&mut s), Some(v));
            assert!(s.is_empty());
        }
    }

    #[test]
    fn u64_round_trip() {
        for v in [0u64, 300, 1 << 35, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(read_u64(&mut s), Some(v));
        }
    }

    #[test]
    fn truncated_input_is_none() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 1_000_000);
        let mut s = &buf[..buf.len() - 1];
        assert_eq!(read_u32(&mut s), None);
        let mut empty: &[u8] = &[];
        assert_eq!(read_u32(&mut empty), None);
    }

    #[test]
    fn overlong_encoding_rejected() {
        let bad = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut s = bad.as_slice();
        assert_eq!(read_u32(&mut s), None);
    }

    #[test]
    fn sorted_round_trip() {
        let ids = vec![3u32, 4, 10, 1_000, 1_001, 500_000];
        let mut buf = Vec::new();
        encode_sorted(&ids, &mut buf);
        let mut s = buf.as_slice();
        assert_eq!(decode_sorted(&mut s, ids.len()), Some(ids));
        assert!(s.is_empty());
    }

    #[test]
    fn sorted_empty_and_single() {
        let mut buf = Vec::new();
        encode_sorted(&[], &mut buf);
        assert!(buf.is_empty());
        let mut s = buf.as_slice();
        assert_eq!(decode_sorted(&mut s, 0), Some(vec![]));

        buf.clear();
        encode_sorted(&[42], &mut buf);
        let mut s = buf.as_slice();
        assert_eq!(decode_sorted(&mut s, 1), Some(vec![42]));
    }

    #[test]
    fn dense_ids_compress_well() {
        let ids: Vec<u32> = (1_000_000..1_000_000 + 1000).collect();
        let mut buf = Vec::new();
        encode_sorted(&ids, &mut buf);
        // 999 single-byte deltas + one multi-byte head.
        assert!(buf.len() < 1010, "got {} bytes", buf.len());
    }

    #[test]
    fn word_wise_fast_path_decodes_dense_runs() {
        // 1000 consecutive ids after a multi-byte head: the bulk decodes
        // through the u64 word path, the head and tail through the scalar
        // fallback.
        let ids: Vec<u32> = (1_000_000..1_001_000).collect();
        let mut buf = Vec::new();
        encode_sorted(&ids, &mut buf);
        let mut s = buf.as_slice();
        let mut out = Vec::new();
        assert_eq!(decode_sorted_into(&mut s, ids.len(), &mut out), Some(()));
        assert!(s.is_empty());
        assert_eq!(out, ids);
    }

    #[test]
    fn word_wise_fast_path_handles_mixed_gap_widths() {
        // Alternate single-byte runs with >7-bit gaps so the word test
        // fails mid-stream and the decoder flips between both paths.
        let mut ids: Vec<u32> = Vec::new();
        let mut cur = 5u32;
        for round in 0..40u32 {
            for _ in 0..(round % 11) {
                cur += 1 + (round % 3); // 1-byte deltas
                ids.push(cur);
            }
            cur += 200 + round * 1000; // 2+ byte delta
            ids.push(cur);
        }
        let mut buf = Vec::new();
        encode_sorted(&ids, &mut buf);
        for take in [0usize, 1, 7, 8, 9, 16, ids.len()] {
            let mut s = buf.as_slice();
            let mut out = Vec::new();
            assert_eq!(decode_sorted_into(&mut s, take, &mut out), Some(()));
            assert_eq!(out, &ids[..take], "count {take}");
        }
    }

    #[test]
    fn word_wise_fast_path_small_first_id() {
        // First id ≤ 127 makes the very first word eligible: the `i == 0`
        // head must still be decoded verbatim, not as a delta.
        let ids: Vec<u32> = (3..3 + 64).collect();
        let mut buf = Vec::new();
        encode_sorted(&ids, &mut buf);
        let mut s = buf.as_slice();
        let mut out = Vec::new();
        assert_eq!(decode_sorted_into(&mut s, ids.len(), &mut out), Some(()));
        assert_eq!(out, ids);
    }

    #[test]
    fn word_wise_truncated_input_still_fails() {
        let ids: Vec<u32> = (10..200).collect();
        let mut buf = Vec::new();
        encode_sorted(&ids, &mut buf);
        let mut s = &buf[..buf.len() - 1];
        let mut out = Vec::new();
        assert_eq!(decode_sorted_into(&mut s, ids.len(), &mut out), None);
    }

    #[test]
    fn multiple_values_stream() {
        let mut buf = Vec::new();
        for v in 0..200u32 {
            write_u32(&mut buf, v * 37);
        }
        let mut s = buf.as_slice();
        for v in 0..200u32 {
            assert_eq!(read_u32(&mut s), Some(v * 37));
        }
    }
}
