//! The SuDoku per-line codec: a 512-bit data payload protected by CRC-31
//! (detection) and ECC-1 (Hamming SEC correction).
//!
//! Per paper §III-E the CRC is computed over the data, and the ECC is
//! computed over CRC *and* data, so that ECC-1 can repair a single fault in
//! either field, and so that an ECC miscorrection is caught by the CRC
//! recheck. The stored line is therefore 553 bits:
//!
//! ```text
//! bit 0..512    data
//! bit 512..543  CRC-31 (over data)
//! bit 543..553  ECC-1 check bits (Hamming SEC over data‖CRC)
//! ```
//!
//! Storage overhead: 41 bits per line, vs 60 for ECC-6 (paper §VII-H counts
//! 43 with the amortized 2 bits of PLT parity storage).

use crate::bits::{LineData, LINE_BITS, LINE_WORDS};
use crate::crc::{crc31, CrcEngine};
use crate::hamming::{HammingOutcome, HammingSec};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Data bits per line.
pub const DATA_BITS: usize = LINE_BITS;
/// CRC field width.
pub const CRC_BITS: usize = 31;
/// ECC-1 (Hamming SEC) check bits over the 543-bit payload.
pub const ECC_BITS: usize = 10;
/// Total stored bits per SuDoku line.
pub const TOTAL_BITS: usize = DATA_BITS + CRC_BITS + ECC_BITS;

/// A stored SuDoku cache line: data plus CRC-31 plus ECC-1 metadata.
///
/// All 553 stored bits are addressable (and fault-injectable) through
/// [`ProtectedLine::bit`] / [`ProtectedLine::flip_bit`]; the XOR operations
/// act on the full codeword, which is what the RAID-4 parity lines store.
///
/// # Examples
///
/// ```
/// use sudoku_codes::{LineCodec, LineData};
///
/// let codec = LineCodec::shared();
/// let mut data = LineData::zero();
/// data.set_bit(9, true);
/// let line = codec.encode(&data);
/// assert!(codec.validate(&line));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ProtectedLine {
    /// The 512 data bits.
    pub data: LineData,
    /// The 31 CRC bits (low 31 bits used).
    pub crc: u32,
    /// The 10 ECC-1 check bits (low 10 bits used).
    pub ecc: u16,
}

impl ProtectedLine {
    /// The all-zero codeword (valid: zero data has zero CRC and zero ECC).
    pub fn zero() -> Self {
        ProtectedLine::default()
    }

    /// Reads stored bit `i` (0..553, spanning data, CRC, ECC).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 553`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        if i < DATA_BITS {
            self.data.bit(i)
        } else if i < DATA_BITS + CRC_BITS {
            (self.crc >> (i - DATA_BITS)) & 1 == 1
        } else if i < TOTAL_BITS {
            (self.ecc >> (i - DATA_BITS - CRC_BITS)) & 1 == 1
        } else {
            panic!("stored-bit index {i} out of range");
        }
    }

    /// Flips stored bit `i` (0..553).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 553`.
    #[inline]
    pub fn flip_bit(&mut self, i: usize) {
        if i < DATA_BITS {
            self.data.flip_bit(i);
        } else if i < DATA_BITS + CRC_BITS {
            self.crc ^= 1 << (i - DATA_BITS);
        } else if i < TOTAL_BITS {
            self.ecc ^= 1 << (i - DATA_BITS - CRC_BITS);
        } else {
            panic!("stored-bit index {i} out of range");
        }
    }

    /// XORs another stored line into this one (all 553 bits).
    ///
    /// Because CRC and Hamming are linear, the XOR of valid codewords is a
    /// valid codeword — the property RAID-4 parity lines rely on.
    #[inline]
    pub fn xor_assign(&mut self, other: &ProtectedLine) {
        self.data.xor_assign(&other.data);
        self.crc ^= other.crc;
        self.ecc ^= other.ecc;
    }

    /// Returns the XOR of two stored lines.
    #[inline]
    pub fn xor(&self, other: &ProtectedLine) -> ProtectedLine {
        let mut out = *self;
        out.xor_assign(other);
        out
    }

    /// Stored-bit positions at which two lines differ, ascending.
    pub fn diff_positions(&self, other: &ProtectedLine) -> Vec<usize> {
        let mut out = self.data.diff_positions(&other.data);
        let mut crc_diff = self.crc ^ other.crc;
        while crc_diff != 0 {
            out.push(DATA_BITS + crc_diff.trailing_zeros() as usize);
            crc_diff &= crc_diff - 1;
        }
        let mut ecc_diff = self.ecc ^ other.ecc;
        while ecc_diff != 0 {
            out.push(DATA_BITS + CRC_BITS + ecc_diff.trailing_zeros() as usize);
            ecc_diff &= ecc_diff - 1;
        }
        out
    }

    /// Whether every stored bit is zero.
    pub fn is_zero(&self) -> bool {
        self.data.is_zero() && self.crc == 0 && self.ecc == 0
    }

    /// Number of set stored bits.
    pub fn count_ones(&self) -> u32 {
        self.data.count_ones() + self.crc.count_ones() + self.ecc.count_ones()
    }
}

/// How a single-fault repair fixed a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RepairKind {
    /// A data or CRC bit at this stored-bit position was flipped back.
    PayloadBit(usize),
    /// The ECC field itself was faulty and was regenerated.
    EccField,
}

/// Classification of a stored line by the read path (paper §III-B/C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReadCheck {
    /// CRC syndrome is zero: the line is served as-is.
    Clean,
    /// ECC-1 repaired a single fault and the CRC re-check passed.
    Corrected {
        /// The repaired stored line (write it back).
        repaired: ProtectedLine,
        /// What was repaired.
        kind: RepairKind,
    },
    /// ECC-1 could not produce a CRC-consistent line: multi-bit error,
    /// escalate to RAID-4 / SDR / skewed-hash recovery.
    MultiBit,
}

/// Words in the fixed ECC-1 payload (data ‖ CRC): eight data words, then
/// the CRC in the low 31 bits of word 8.
const PAYLOAD_WORDS: usize = LINE_WORDS + 1;

/// The 543-bit ECC-1 payload carried on the stack.
type Payload = [u64; PAYLOAD_WORDS];

/// The used bits of [`ProtectedLine::crc`]. Stray high bits fail the CRC
/// check but are not part of the ECC-1 payload.
const CRC_MASK: u32 = (1 << CRC_BITS) - 1;
/// The used bits of [`ProtectedLine::ecc`]: the 10 Hamming check bits.
const ECC_MASK: u32 = (1 << ECC_BITS) - 1;

/// The shared per-line encoder/decoder.
///
/// Construction precomputes the Hamming syndrome masks and the per-bit CRC
/// deltas; use [`LineCodec::shared`] to reuse a single instance
/// process-wide. No method allocates.
#[derive(Clone)]
pub struct LineCodec {
    crc: &'static CrcEngine,
    hamming: HammingSec,
    /// `masks[j][w]`: the payload bits of word `w` that check bit `j`
    /// covers (see [`HammingSec`]'s mask kernel), in the fixed 10×9 shape.
    masks: [[u64; PAYLOAD_WORDS]; ECC_BITS],
    /// `crc_delta[i]`: how flipping payload bit `i` changes
    /// `crc(data) ⊕ stored_crc` — the CRC of the unit vector `e_i` for a
    /// data bit, the stored-CRC bit itself for a CRC bit.
    crc_delta: [u32; DATA_BITS + CRC_BITS],
}

impl std::fmt::Debug for LineCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineCodec")
            .field("crc", self.crc)
            .field("ecc_check_bits", &self.hamming.check_bits())
            .finish()
    }
}

impl Default for LineCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl LineCodec {
    /// Builds a codec (CRC-31 + Hamming SEC over 543 bits).
    pub fn new() -> Self {
        let crc = crc31();
        let hamming = HammingSec::new(DATA_BITS + CRC_BITS);
        let mut crc_delta = [0u32; DATA_BITS + CRC_BITS];
        for (i, delta) in crc_delta.iter_mut().enumerate() {
            *delta = if i < DATA_BITS {
                let mut unit = LineData::zero();
                unit.flip_bit(i);
                crc.checksum_line(&unit) as u32
            } else {
                1 << (i - DATA_BITS)
            };
        }
        LineCodec {
            crc,
            masks: hamming.fixed_masks(),
            hamming,
            crc_delta,
        }
    }

    /// Process-wide shared codec instance.
    pub fn shared() -> &'static LineCodec {
        static CODEC: OnceLock<LineCodec> = OnceLock::new();
        CODEC.get_or_init(LineCodec::new)
    }

    /// Assembles the 543-bit ECC payload (data ‖ CRC) on the stack.
    fn payload_of(data: &LineData, crc: u32) -> Payload {
        let mut words = [0u64; PAYLOAD_WORDS];
        words[..LINE_WORDS].copy_from_slice(data.words());
        words[LINE_WORDS] = (crc & CRC_MASK) as u64;
        words
    }

    /// ECC-1 check bits of a payload: per check bit, AND each payload word
    /// with its mask, XOR the nine results and take the parity — 90
    /// AND/XORs and 10 parities, however many bits are set.
    #[inline]
    fn signature(&self, payload: &Payload) -> u32 {
        let mut sig = 0u32;
        for (j, row) in self.masks.iter().enumerate() {
            let mut acc = 0u64;
            for (m, w) in row.iter().zip(payload) {
                acc ^= m & w;
            }
            sig |= (acc.count_ones() & 1) << j;
        }
        sig
    }

    /// CRC-31 over the data field.
    #[inline]
    fn data_crc(&self, data: &LineData) -> u32 {
        self.crc.checksum_line(data) as u32
    }

    /// Encodes a data payload into a stored line (CRC over data, then ECC
    /// over data‖CRC, per paper §III-E).
    pub fn encode(&self, data: &LineData) -> ProtectedLine {
        let crc = self.data_crc(data);
        let ecc = self.signature(&Self::payload_of(data, crc)) as u16;
        ProtectedLine {
            data: *data,
            crc,
            ecc,
        }
    }

    /// Whether the stored CRC matches the data (the one-cycle read check).
    #[inline]
    pub fn crc_ok(&self, line: &ProtectedLine) -> bool {
        self.data_crc(&line.data) == line.crc
    }

    /// Whether the ECC field matches the (data ‖ CRC) payload.
    #[inline]
    fn ecc_ok(&self, line: &ProtectedLine) -> bool {
        self.signature(&Self::payload_of(&line.data, line.crc)) == line.ecc as u32 & ECC_MASK
    }

    /// Full consistency: CRC matches *and* the ECC field is consistent.
    /// Used by the scrubber (which repairs metadata too) and by tests.
    pub fn validate(&self, line: &ProtectedLine) -> bool {
        self.crc_ok(line) && self.ecc_ok(line)
    }

    /// The read-path check (paper §III-B/C): CRC syndrome, then ECC-1
    /// repair attempt, then CRC re-check.
    ///
    /// Note: per the paper, a clean CRC short-circuits — a latent fault in
    /// the ECC field is *not* noticed by reads (the scrub path,
    /// [`LineCodec::scrub_check`], handles it).
    pub fn read_check(&self, line: &ProtectedLine) -> ReadCheck {
        let crc_syndrome = self.data_crc(&line.data) ^ line.crc;
        if crc_syndrome == 0 {
            return ReadCheck::Clean;
        }
        self.try_ecc1_repair(line, crc_syndrome)
    }

    /// The scrub-path check: like [`LineCodec::read_check`], but a line
    /// whose data+CRC are clean while the ECC field is inconsistent gets
    /// its ECC field regenerated (the scrubber trusts CRC-validated data).
    pub fn scrub_check(&self, line: &ProtectedLine) -> ReadCheck {
        let crc_syndrome = self.data_crc(&line.data) ^ line.crc;
        if crc_syndrome != 0 {
            return self.try_ecc1_repair(line, crc_syndrome);
        }
        let ecc = self.signature(&Self::payload_of(&line.data, line.crc));
        if ecc == line.ecc as u32 & ECC_MASK {
            return ReadCheck::Clean;
        }
        ReadCheck::Corrected {
            repaired: ProtectedLine {
                ecc: ecc as u16,
                ..*line
            },
            kind: RepairKind::EccField,
        }
    }

    /// ECC-1 repair of a line whose CRC syndrome is non-zero, with the
    /// §III-E CRC re-check done by linearity: the engine is zero-init with
    /// no final XOR, so flipping payload bit `i` changes the CRC syndrome
    /// by exactly `crc_delta[i]`, and the candidate is CRC-consistent iff
    /// `crc_syndrome == crc_delta[i]` — no second CRC pass.
    fn try_ecc1_repair(&self, line: &ProtectedLine, crc_syndrome: u32) -> ReadCheck {
        let mut payload = Self::payload_of(&line.data, line.crc);
        let syndrome = self.signature(&payload) ^ (line.ecc as u32 & ECC_MASK);
        match self.hamming.locate(syndrome) {
            HammingOutcome::CorrectedPayload(idx)
                if self.crc_delta[idx] == crc_syndrome & CRC_MASK =>
            {
                payload[idx / 64] ^= 1 << (idx % 64);
                let data =
                    LineData::from_words(payload[..LINE_WORDS].try_into().expect("8 data words"));
                ReadCheck::Corrected {
                    repaired: ProtectedLine {
                        data,
                        crc: payload[LINE_WORDS] as u32,
                        ecc: line.ecc,
                    },
                    kind: RepairKind::PayloadBit(idx),
                }
            }
            // ECC-1 miscorrected (the fault was multi-bit) and the CRC
            // re-check caught it, exactly as §III-E intends; or the CRC says
            // faulty while Hamming blames its own check bits or sees
            // nothing/invalid: more than one fault. Escalate.
            _ => ReadCheck::MultiBit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(seed: u64) -> LineData {
        let mut data = LineData::zero();
        let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        for i in 0..DATA_BITS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 1 {
                data.set_bit(i, true);
            }
        }
        data
    }

    #[test]
    fn total_bits_is_553() {
        assert_eq!(TOTAL_BITS, 553);
    }

    #[test]
    fn payload_assembly_matches_bitwise_reference() {
        let data = sample_data(99);
        let crc = 0x5a5a_5a5a & ((1u32 << CRC_BITS) - 1);
        let payload = LineCodec::payload_of(&data, crc);
        for i in 0..DATA_BITS {
            assert_eq!(
                (payload[i / 64] >> (i % 64)) & 1 == 1,
                data.bit(i),
                "bit {i}"
            );
        }
        assert_eq!(payload[LINE_WORDS], crc as u64);
    }

    #[test]
    fn encode_validate_roundtrip() {
        let codec = LineCodec::shared();
        let line = codec.encode(&sample_data(1));
        assert!(codec.validate(&line));
        assert_eq!(codec.read_check(&line), ReadCheck::Clean);
    }

    #[test]
    fn every_single_bit_fault_is_repaired() {
        let codec = LineCodec::shared();
        let golden = codec.encode(&sample_data(2));
        for i in 0..TOTAL_BITS {
            let mut line = golden;
            line.flip_bit(i);
            match codec.scrub_check(&line) {
                ReadCheck::Clean => {
                    // Only reachable for ECC-field faults on the read path;
                    // the scrub path must not report Clean for any flip.
                    panic!("bit {i}: scrub_check returned Clean on a faulty line");
                }
                ReadCheck::Corrected { repaired, .. } => {
                    assert_eq!(repaired, golden, "bit {i} repaired incorrectly");
                }
                ReadCheck::MultiBit => panic!("bit {i}: single fault deemed multi-bit"),
            }
        }
    }

    #[test]
    fn read_path_ignores_ecc_field_faults() {
        // Per §III-B the read check is the CRC syndrome only.
        let codec = LineCodec::shared();
        let golden = codec.encode(&sample_data(3));
        let mut line = golden;
        line.flip_bit(TOTAL_BITS - 1); // an ECC-field bit
        assert_eq!(codec.read_check(&line), ReadCheck::Clean);
        // The scrubber regenerates it.
        match codec.scrub_check(&line) {
            ReadCheck::Corrected {
                repaired,
                kind: RepairKind::EccField,
            } => assert_eq!(repaired, golden),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn double_faults_are_flagged_multibit() {
        let codec = LineCodec::shared();
        let golden = codec.encode(&sample_data(4));
        for (a, b) in [(0usize, 1usize), (10, 300), (511, 512), (100, 542)] {
            let mut line = golden;
            line.flip_bit(a);
            line.flip_bit(b);
            assert_eq!(
                codec.read_check(&line),
                ReadCheck::MultiBit,
                "faults at {a},{b}"
            );
        }
    }

    #[test]
    fn xor_of_valid_codewords_is_valid() {
        let codec = LineCodec::shared();
        let a = codec.encode(&sample_data(5));
        let b = codec.encode(&sample_data(6));
        let c = a.xor(&b);
        assert!(codec.validate(&c), "linearity violated");
    }

    #[test]
    fn diff_positions_cover_all_fields() {
        let golden = LineCodec::shared().encode(&sample_data(7));
        let mut line = golden;
        line.flip_bit(5);
        line.flip_bit(520);
        line.flip_bit(550);
        assert_eq!(line.diff_positions(&golden), vec![5, 520, 550]);
    }

    #[test]
    fn zero_line_is_valid() {
        let codec = LineCodec::shared();
        assert!(codec.validate(&ProtectedLine::zero()));
    }

    #[test]
    fn bit_and_flip_agree() {
        let mut line = ProtectedLine::zero();
        for i in [0usize, 511, 512, 542, 543, 552] {
            assert!(!line.bit(i));
            line.flip_bit(i);
            assert!(line.bit(i));
        }
        assert_eq!(line.count_ones(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bit_panics() {
        ProtectedLine::zero().bit(TOTAL_BITS);
    }
}
