//! CRC-32 chunk checksums, packet framing, and replicas verified chunk by
//! chunk.
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
//!
//! Readers trust only what they verified: a [`ReplicaBytes`] carries a
//! replica's bytes, its checksum file and one "verified" bit per chunk, and
//! every reader of a replica verifies the chunks it is about to read —
//! only those, and each once.

use bytes::Bytes;
use hail_types::config::{CHUNK_SIZE, PACKET_SIZE};
use hail_types::{HailError, Result};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// A full chunk's CRC runs as four interleaved lanes of this many bytes.
const LANE: usize = CHUNK_SIZE / 4;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets a lane fold eight input bytes
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

/// `SHIFTS[i]` moves a CRC state past `(i + 1) × LANE` zero bytes, one
/// table per state byte: the state after `n` zero bytes is linear in the
/// state before, so it is the XOR of what each of its four bytes becomes.
/// This is what merges four lanes computed side by side into the state
/// one pass over the whole chunk would have reached.
static SHIFTS: [[[u32; 256]; 4]; 3] = [
    shift_table(LANE),
    shift_table(2 * LANE),
    shift_table(3 * LANE),
];

/// The CRC state `state` becomes after `n` zero bytes, a byte at a time.
const fn after_zero_bytes(mut state: u32, n: usize) -> u32 {
    let mut i = 0;
    while i < n {
        state = TABLES[0][(state & 0xFF) as usize] ^ (state >> 8);
        i += 1;
    }
    state
}

/// The per-byte tables of "`n` zero bytes later", each entry the XOR of
/// the shifted single-bit states its byte is made of.
const fn shift_table(n: usize) -> [[u32; 256]; 4] {
    let mut bits = [0u32; 32];
    let mut j = 0;
    while j < 32 {
        bits[j] = after_zero_bytes(1 << j, n);
        j += 1;
    }
    let mut table = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut bit = 0;
            while bit < 8 {
                if b & (1 << bit) != 0 {
                    table[k][b] ^= bits[8 * k + bit];
                }
                bit += 1;
            }
            b += 1;
        }
        k += 1;
    }
    table
}

/// Folds the eight bytes `w` into the CRC state `crc`.
#[inline(always)]
fn step(crc: u32, w: &[u8]) -> u32 {
    let t = &TABLES;
    let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// The state `state` becomes after `(i + 1) × LANE` zero bytes.
#[inline(always)]
fn shift(i: usize, state: u32) -> u32 {
    let t = &SHIFTS[i];
    t[0][(state & 0xFF) as usize]
        ^ t[1][((state >> 8) & 0xFF) as usize]
        ^ t[2][((state >> 16) & 0xFF) as usize]
        ^ t[3][(state >> 24) as usize]
}

/// Advances a CRC state over `data`. Every full 512-byte chunk is four
/// 128-byte lanes folded side by side — four independent dependency
/// chains instead of one — and merged with [`SHIFTS`]; what is left is
/// folded eight bytes per step, then a byte at a time.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(CHUNK_SIZE);
    for chunk in &mut chunks {
        let (l0, rest) = chunk.split_at(LANE);
        let (l1, rest) = rest.split_at(LANE);
        let (l2, l3) = rest.split_at(LANE);
        // Lane 0 carries the state so far; the others start from zero.
        let (mut a, mut b, mut c, mut d) = (crc, 0, 0, 0);
        for i in (0..LANE).step_by(8) {
            a = step(a, &l0[i..i + 8]);
            b = step(b, &l1[i..i + 8]);
            c = step(c, &l2[i..i + 8]);
            d = step(d, &l3[i..i + 8]);
        }
        crc = shift(2, a) ^ shift(1, b) ^ shift(0, c) ^ d;
    }
    let mut words = chunks.remainder().chunks_exact(8);
    for w in &mut words {
        crc = step(crc, w);
    }
    for &b in words.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Computes the CRC-32 (IEEE 802.3) of a byte slice: a full chunk in four
/// lanes, a short one eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
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
        check_chunk(i, chunk, expected)?;
    }
    Ok(())
}

/// Chunk `index` of a replica, `chunk`, against its stored checksum.
fn check_chunk(index: usize, chunk: &[u8], expected: u32) -> Result<()> {
    let actual = crc32(chunk);
    if actual == expected {
        Ok(())
    } else {
        Err(HailError::ChecksumMismatch {
            chunk_index: index,
            expected,
            actual,
        })
    }
}

/// One replica as its readers see it: the data file, the checksum file,
/// and one "verified" bit per chunk.
///
/// Readers verify the chunks of a range before they first read it
/// ([`ReplicaBytes::verify`]). A chunk's bit is set only after its CRC
/// matched, so each chunk is checked once however many readers — on
/// however many threads — touch it (two first readers racing on the same
/// chunk may both check it); a chunk that does not match keeps its bit
/// clear and fails every reader that touches it. The chunk index of a byte
/// is its offset in the replica divided by 512.
///
/// Bytes with no checksum file — a block just built in memory, or parsed
/// from bytes the caller vouches for — are [`ReplicaBytes::trusted`]: the
/// same reader code runs over them with every bit already set.
#[derive(Debug)]
pub struct ReplicaBytes {
    data: Bytes,
    /// One CRC per chunk, shared with the datanode's checksum file;
    /// empty when every bit starts set.
    checksums: Arc<[u32]>,
    verified: Box<[AtomicU64]>,
}

impl ReplicaBytes {
    /// A stored replica and its checksum file, nothing verified yet. A
    /// checksum file that does not hold one CRC per chunk is corrupt.
    pub fn new(data: Bytes, checksums: Arc<[u32]>) -> Result<ReplicaBytes> {
        let chunks = data.len().div_ceil(CHUNK_SIZE);
        if chunks != checksums.len() {
            return Err(HailError::Corrupt(format!(
                "checksum count mismatch: {chunks} chunks, {} checksums",
                checksums.len()
            )));
        }
        Ok(ReplicaBytes {
            verified: (0..chunks.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            data,
            checksums,
        })
    }

    /// Bytes the caller vouches for: every chunk counts as verified.
    pub fn trusted(data: Bytes) -> ReplicaBytes {
        let words = data.len().div_ceil(CHUNK_SIZE).div_ceil(64);
        ReplicaBytes {
            data,
            checksums: Arc::new([]),
            verified: (0..words).map(|_| AtomicU64::new(u64::MAX)).collect(),
        }
    }

    /// All of the replica's bytes, verified or not: read only what
    /// [`ReplicaBytes::verify`] has passed.
    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// The replica's length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a replica of zero bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Verifies every chunk `range` overlaps that is not verified yet,
    /// lowest first: the first mismatch is the error. A range beyond the
    /// replica is [`HailError::Corrupt`].
    pub fn verify(&self, range: Range<usize>) -> Result<()> {
        if range.start > range.end || range.end > self.data.len() {
            return Err(HailError::Corrupt(format!(
                "read of bytes {}..{} of a replica of {} bytes",
                range.start,
                range.end,
                self.data.len()
            )));
        }
        if range.is_empty() {
            return Ok(());
        }
        (range.start / CHUNK_SIZE..=(range.end - 1) / CHUNK_SIZE)
            .try_for_each(|chunk| self.verify_chunk(chunk))
    }

    /// How many chunks are verified (or trusted).
    pub fn verified_chunks(&self) -> usize {
        (0..self.data.len().div_ceil(CHUNK_SIZE))
            .filter(|&chunk| self.is_verified(chunk))
            .count()
    }

    #[inline]
    fn is_verified(&self, chunk: usize) -> bool {
        self.verified[chunk / 64].load(Ordering::Relaxed) & (1 << (chunk % 64)) != 0
    }

    fn verify_chunk(&self, chunk: usize) -> Result<()> {
        if self.is_verified(chunk) {
            return Ok(());
        }
        let start = chunk * CHUNK_SIZE;
        let end = (start + CHUNK_SIZE).min(self.data.len());
        check_chunk(chunk, &self.data[start..end], self.checksums[chunk])?;
        // The bytes never change, so the bit publishes nothing but the
        // fact that they matched.
        self.verified[chunk / 64].fetch_or(1 << (chunk % 64), Ordering::Relaxed);
        Ok(())
    }
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

    /// The byte-at-a-time table CRC the lanes replaced, kept as the
    /// reference they are held to.
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

    /// Every length from empty to four full chunks and a tail, at every
    /// alignment of a word: lanes, words and bytes all agree with the
    /// byte-at-a-time CRC.
    #[test]
    fn sliced_crc_equals_bytewise_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..2_108u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=2_100 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, length {len}"
                );
            }
        }
    }

    /// The compile-time shift tables are what folding zero bytes into a
    /// state one at a time gives, at run time.
    #[test]
    fn shift_tables_equal_a_runtime_zero_byte_fold() {
        let fold = |mut state: u32, n: usize| {
            for _ in 0..n {
                state = TABLES[0][(state & 0xFF) as usize] ^ (state >> 8);
            }
            state
        };
        for (i, table) in SHIFTS.iter().enumerate() {
            for (k, bytes) in table.iter().enumerate() {
                for (b, &entry) in bytes.iter().enumerate() {
                    assert_eq!(entry, fold((b as u32) << (8 * k), (i + 1) * LANE));
                }
            }
            let state = 0x1234_5678;
            assert_eq!(shift(i, state), fold(state, (i + 1) * LANE));
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
    fn verify_reports_the_lowest_mismatching_chunk() {
        let mut data: Vec<u8> = (0..CHUNK_SIZE * 6).map(|i| (i % 253) as u8).collect();
        let sums = chunk_checksums(&data);
        for chunk in [4, 1, 5] {
            data[chunk * CHUNK_SIZE + 17] ^= 0x40;
        }
        let lowest = |err: HailError| match err {
            HailError::ChecksumMismatch { chunk_index, .. } => chunk_index,
            other => panic!("unexpected error {other}"),
        };
        assert_eq!(lowest(verify_chunks(&data, &sums).unwrap_err()), 1);
        let replica = ReplicaBytes::new(Bytes::from(data), sums.into()).unwrap();
        assert_eq!(lowest(replica.verify(0..replica.len()).unwrap_err()), 1);
        assert_eq!(
            lowest(replica.verify(2 * CHUNK_SIZE..6 * CHUNK_SIZE).unwrap_err()),
            4
        );
    }

    /// A replica verifies only the chunks a range overlaps, each once,
    /// and a chunk that failed keeps failing.
    #[test]
    fn replica_verifies_the_chunks_a_range_touches() {
        let mut data: Vec<u8> = (0..CHUNK_SIZE * 5 + 100).map(|i| (i % 251) as u8).collect();
        let sums = chunk_checksums(&data);
        data[3 * CHUNK_SIZE + 9] ^= 1;
        let replica = ReplicaBytes::new(Bytes::from(data.clone()), sums.clone().into()).unwrap();
        assert_eq!(replica.verified_chunks(), 0);
        replica.verify(CHUNK_SIZE - 1..CHUNK_SIZE + 1).unwrap();
        assert_eq!(replica.verified_chunks(), 2);
        replica
            .verify(5 * CHUNK_SIZE..5 * CHUNK_SIZE + 100)
            .unwrap();
        replica.verify(7..7).unwrap();
        assert_eq!(replica.verified_chunks(), 3);
        for _ in 0..2 {
            assert!(matches!(
                replica.verify(3 * CHUNK_SIZE + 500..3 * CHUNK_SIZE + 501),
                Err(HailError::ChecksumMismatch { chunk_index: 3, .. })
            ));
        }
        assert_eq!(replica.verified_chunks(), 3);
        assert!(matches!(
            replica.verify(0..data.len() + 1),
            Err(HailError::Corrupt(_))
        ));
        assert!(matches!(
            ReplicaBytes::new(Bytes::from(data.clone()), sums[1..].into()),
            Err(HailError::Corrupt(_))
        ));
        // Trusted bytes read through the same calls, with nothing to check.
        let trusted = ReplicaBytes::trusted(Bytes::from(data));
        assert_eq!(trusted.verified_chunks(), 6);
        trusted.verify(0..trusted.len()).unwrap();
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
