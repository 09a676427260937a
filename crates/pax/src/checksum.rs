//! CRC-32 chunk checksums and packet framing.
//!
//! HDFS partitions every block into 512-byte chunks and keeps a CRC per
//! chunk; chunks are collected into packets of at most 64 KB which are the
//! unit of transfer in the upload pipeline (§3.2). The checksums live in a
//! separate file next to each replica's data file and are re-used whenever
//! data travels over the network.
//!
//! HAIL keeps this mechanism intact but recomputes the checksums on every
//! datanode after its local sort — each replica's bytes differ, so each
//! replica's checksum file differs too.

use hail_types::config::{CHUNK_SIZE, PACKET_SIZE};
use hail_types::{HailError, Result};

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets [`crc32`] fold eight input bytes
/// per step with eight independent lookups.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Computes the CRC-32 (IEEE 802.3) of a byte slice, eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Splits a byte buffer into 512-byte chunks (the last chunk may be
/// shorter) and returns one CRC per chunk.
pub fn chunk_checksums(data: &[u8]) -> Vec<u32> {
    data.chunks(CHUNK_SIZE).map(crc32).collect()
}

/// Verifies every chunk of `data` against the stored checksums, returning
/// the index of the first mismatching chunk on failure.
pub fn verify_chunks(data: &[u8], checksums: &[u32]) -> Result<()> {
    let chunks = data.len().div_ceil(CHUNK_SIZE);
    if chunks != checksums.len() {
        return Err(HailError::Corrupt(format!(
            "checksum count mismatch: {} chunks, {} checksums",
            chunks,
            checksums.len()
        )));
    }
    for (i, (chunk, &expected)) in data.chunks(CHUNK_SIZE).zip(checksums).enumerate() {
        let actual = crc32(chunk);
        if actual != expected {
            return Err(HailError::ChecksumMismatch {
                chunk_index: i,
                expected,
                actual,
            });
        }
    }
    Ok(())
}

/// Serializes a checksum list into the on-disk checksum-file format
/// (a bare little-endian u32 array).
pub fn checksums_to_bytes(checksums: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(checksums.len() * 4);
    for &c in checksums {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
}

/// Parses a checksum file written by [`checksums_to_bytes`].
pub fn checksums_from_bytes(bytes: &[u8]) -> Result<Vec<u32>> {
    if !bytes.len().is_multiple_of(4) {
        return Err(HailError::Corrupt(format!(
            "checksum file length {} not a multiple of 4",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Fixed per-packet metadata overhead (sequence number, block offset,
/// flags, counts) budgeted against [`PACKET_SIZE`].
const PACKET_HEADER_BYTES: usize = 32;

/// How many 512-byte chunks fit into one packet alongside their checksums
/// and the header.
pub const CHUNKS_PER_PACKET: usize = (PACKET_SIZE - PACKET_HEADER_BYTES) / (CHUNK_SIZE + 4);

/// A packet: the unit of transfer in the (HDFS and HAIL) upload pipeline.
///
/// Carries a contiguous run of chunks of one block plus one CRC per chunk.
/// `seqno` orders packets within a block; `last` marks the block's final
/// packet, whose ACK has stronger semantics (it is only sent once the
/// whole replica — data and checksums — has been flushed, §3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// 0-based sequence number within the block.
    pub seqno: u32,
    /// Byte offset of this packet's payload within the block.
    pub offset: u64,
    /// Payload bytes (up to [`CHUNKS_PER_PACKET`] × 512).
    pub data: Vec<u8>,
    /// One CRC-32 per 512-byte chunk of `data`.
    pub checksums: Vec<u32>,
    /// True for the final packet of a block.
    pub last: bool,
}

impl Packet {
    /// Total bytes this packet occupies on the wire (payload + checksums +
    /// header). The cost model charges this amount to the network.
    pub fn wire_bytes(&self) -> usize {
        self.data.len() + self.checksums.len() * 4 + PACKET_HEADER_BYTES
    }

    /// Recomputes chunk CRCs and compares with the carried checksums
    /// (what DN3, the tail of the chain, does for every packet).
    pub fn verify(&self) -> Result<()> {
        verify_chunks(&self.data, &self.checksums)
    }
}

/// Cuts a block's bytes into a packet sequence with per-chunk CRCs.
///
/// Always produces at least one packet (an empty block yields one empty
/// `last` packet) so the ACK protocol has something to acknowledge.
pub fn packetize(block: &[u8]) -> Vec<Packet> {
    let payload = CHUNKS_PER_PACKET * CHUNK_SIZE;
    let n_packets = block.len().div_ceil(payload).max(1);
    let mut packets = Vec::with_capacity(n_packets);
    for i in 0..n_packets {
        let start = i * payload;
        let end = ((i + 1) * payload).min(block.len());
        let data = block[start..end].to_vec();
        let checksums = chunk_checksums(&data);
        packets.push(Packet {
            seqno: i as u32,
            offset: start as u64,
            data,
            checksums,
            last: i + 1 == n_packets,
        });
    }
    packets
}

/// Reassembles a block from its packets (what each HAIL datanode does in
/// main memory before sorting, §3.2 step 6).
///
/// Verifies ordering, contiguity, and the `last` flag; does *not* verify
/// checksums — that is the chain tail's job.
pub fn reassemble(packets: &[Packet]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    for (i, p) in packets.iter().enumerate() {
        if p.seqno as usize != i {
            return Err(HailError::Pipeline(format!(
                "packet out of order: expected seqno {i}, got {}",
                p.seqno
            )));
        }
        if p.offset as usize != out.len() {
            return Err(HailError::Pipeline(format!(
                "packet {} offset {} does not match reassembly position {}",
                i,
                p.offset,
                out.len()
            )));
        }
        if p.last != (i + 1 == packets.len()) {
            return Err(HailError::Pipeline(format!(
                "packet {} has wrong last flag",
                i
            )));
        }
        out.extend_from_slice(&p.data);
    }
    if packets.is_empty() {
        return Err(HailError::Pipeline("no packets to reassemble".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table CRC [`crc32`] replaced, kept as the
    /// reference the sliced implementation is held to.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc_equals_bytewise_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..1_108u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=1_100 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, length {len}"
                );
            }
        }
    }

    /// The checksum file of one fixed PAX block, digested (FNV-1a 64) with
    /// the byte-at-a-time implementation before it was replaced: neither
    /// the CRC nor the file format may move.
    #[test]
    fn checksum_file_of_a_fixed_block_is_golden() {
        use crate::block::encode_block;
        use crate::column::ColumnData;
        use hail_types::{DataType, Field, Schema};

        let schema = Schema::new(vec![
            Field::new("ip", DataType::VarChar),
            Field::new("day", DataType::Date),
            Field::new("revenue", DataType::Float),
            Field::new("duration", DataType::Int),
            Field::new("visits", DataType::Long),
        ])
        .unwrap();
        let n = 700usize;
        let columns = vec![
            ColumnData::Str(
                (0..n)
                    .map(|i| format!("10.{}.{}.{}", i % 7, i % 251, i))
                    .collect(),
            ),
            ColumnData::Date((0..n).map(|i| 10_000 + (i as i32 * 37) % 4_000).collect()),
            ColumnData::Float((0..n).map(|i| i as f64 * 0.25 - 3.0).collect()),
            ColumnData::Int((0..n).map(|i| (i as i32 * 7919) % 1_000 - 500).collect()),
            ColumnData::Long((0..n).map(|i| i as i64 * 1_000_003).collect()),
        ];
        let bad = vec!["not|a|row".to_string(), "żółw|x".to_string()];
        let block = encode_block(&schema, &columns, &bad, 64).unwrap();
        assert_eq!(block.len(), 25_632);
        let file = checksums_to_bytes(&chunk_checksums(&block));
        assert_eq!(file.len(), 204);
        assert_eq!(file[..4], 0x4FA1_1EDCu32.to_le_bytes());
        assert_eq!(file[200..], 0x6F2C_E53Eu32.to_le_bytes());
        let digest = file.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!(digest, 0xBA98_DDE8_5C26_D178);
    }

    #[test]
    fn chunking_counts() {
        let data = vec![7u8; CHUNK_SIZE * 2 + 10];
        let sums = chunk_checksums(&data);
        assert_eq!(sums.len(), 3);
        assert!(verify_chunks(&data, &sums).is_ok());
    }

    #[test]
    fn verify_detects_corruption() {
        let mut data = vec![1u8; CHUNK_SIZE * 3];
        let sums = chunk_checksums(&data);
        data[CHUNK_SIZE + 5] ^= 0xFF;
        let err = verify_chunks(&data, &sums).unwrap_err();
        match err {
            HailError::ChecksumMismatch { chunk_index, .. } => assert_eq!(chunk_index, 1),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn verify_detects_count_mismatch() {
        let data = vec![1u8; CHUNK_SIZE * 2];
        let sums = chunk_checksums(&data);
        // One whole chunk missing → count mismatch, reported as Corrupt.
        let err = verify_chunks(&data[..CHUNK_SIZE], &sums).unwrap_err();
        assert!(matches!(err, HailError::Corrupt(_)));
        // Truncated last chunk → its CRC no longer matches.
        let err = verify_chunks(&data[..CHUNK_SIZE * 2 - 1], &sums).unwrap_err();
        assert!(matches!(
            err,
            HailError::ChecksumMismatch { chunk_index: 1, .. }
        ));
    }

    #[test]
    fn checksum_file_round_trip() {
        let sums = vec![1u32, 0xDEADBEEF, 42];
        let bytes = checksums_to_bytes(&sums);
        assert_eq!(checksums_from_bytes(&bytes).unwrap(), sums);
        assert!(checksums_from_bytes(&bytes[..5]).is_err());
    }

    #[test]
    fn packet_budget_fits() {
        // A full packet must respect the 64 KB budget.
        let wire = CHUNKS_PER_PACKET * (CHUNK_SIZE + 4) + PACKET_HEADER_BYTES;
        let budget = PACKET_SIZE; // bind as runtime values to compare
        assert!(wire <= budget, "wire {wire} > {budget}");
        let chunks = CHUNKS_PER_PACKET;
        assert!(chunks >= 100, "packets should carry many chunks: {chunks}");
    }

    #[test]
    fn packetize_reassemble_round_trip() {
        let block: Vec<u8> = (0..(CHUNKS_PER_PACKET * CHUNK_SIZE * 2 + 777))
            .map(|i| (i % 251) as u8)
            .collect();
        let packets = packetize(&block);
        assert_eq!(packets.len(), 3);
        assert!(packets.last().unwrap().last);
        for p in &packets {
            p.verify().unwrap();
        }
        assert_eq!(reassemble(&packets).unwrap(), block);
    }

    #[test]
    fn empty_block_yields_one_last_packet() {
        let packets = packetize(&[]);
        assert_eq!(packets.len(), 1);
        assert!(packets[0].last);
        assert_eq!(reassemble(&packets).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn reassemble_rejects_reordering() {
        let block = vec![9u8; CHUNKS_PER_PACKET * CHUNK_SIZE + 1];
        let mut packets = packetize(&block);
        packets.swap(0, 1);
        assert!(reassemble(&packets).is_err());
    }

    #[test]
    fn reassemble_rejects_missing_last_flag() {
        let block = vec![9u8; 100];
        let mut packets = packetize(&block);
        packets[0].last = false;
        assert!(reassemble(&packets).is_err());
    }

    #[test]
    fn packet_corruption_caught_by_verify() {
        let block = vec![3u8; 2048];
        let mut packets = packetize(&block);
        packets[0].data[100] ^= 1;
        assert!(packets[0].verify().is_err());
    }
}
