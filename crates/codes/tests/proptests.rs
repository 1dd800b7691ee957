//! Property-based tests for the code substrate.

use proptest::collection::btree_set;
use proptest::prelude::*;
use sudoku_codes::{
    crc31, group_parity, line_ecc, reconstruct, BchOutcome, BitBuf, HammingOutcome, HammingSec,
    HammingSecDed, LineCodec, LineData, ProtectedLine, ReadCheck, RepairKind, CRC_BITS, DATA_BITS,
    TOTAL_BITS,
};

fn arb_line_data() -> impl Strategy<Value = LineData> {
    prop::array::uniform8(any::<u64>()).prop_map(LineData::from_words)
}

fn arb_bitbuf(len: usize) -> impl Strategy<Value = BitBuf> {
    prop::collection::vec(any::<bool>(), len).prop_map(move |bits| {
        let mut buf = BitBuf::zeros(len);
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                buf.set(i, true);
            }
        }
        buf
    })
}

/// Payload bits of the line codec (data ‖ CRC).
const PAYLOAD_BITS: usize = DATA_BITS + CRC_BITS;

/// The line codec built the slow, obvious way: the payload is a heap
/// `BitBuf` assembled bit by bit, the check bits come from the position-table
/// walk, and the §III-E re-check recomputes the whole CRC bit-serially.
struct ReferenceCodec {
    code: HammingSec,
}

impl ReferenceCodec {
    fn new() -> Self {
        ReferenceCodec {
            code: HammingSec::new(PAYLOAD_BITS),
        }
    }

    fn payload(data: &LineData, crc: u32) -> BitBuf {
        let mut buf = BitBuf::zeros(PAYLOAD_BITS);
        for i in 0..DATA_BITS {
            buf.set(i, data.bit(i));
        }
        for j in 0..CRC_BITS {
            buf.set(DATA_BITS + j, (crc >> j) & 1 == 1);
        }
        buf
    }

    fn data_crc(data: &LineData) -> u32 {
        let mut buf = BitBuf::zeros(DATA_BITS);
        for i in 0..DATA_BITS {
            buf.set(i, data.bit(i));
        }
        crc31().checksum_bits_reference(&buf) as u32
    }

    fn signature(&self, data: &LineData, crc: u32) -> u16 {
        self.code
            .payload_signature_reference(&Self::payload(data, crc)) as u16
    }

    fn encode(&self, data: &LineData) -> ProtectedLine {
        let crc = Self::data_crc(data);
        ProtectedLine {
            data: *data,
            crc,
            ecc: self.signature(data, crc),
        }
    }

    fn validate(&self, line: &ProtectedLine) -> bool {
        Self::data_crc(&line.data) == line.crc && self.signature(&line.data, line.crc) == line.ecc
    }

    fn read_check(&self, line: &ProtectedLine) -> ReadCheck {
        if Self::data_crc(&line.data) == line.crc {
            ReadCheck::Clean
        } else {
            self.repair(line)
        }
    }

    fn scrub_check(&self, line: &ProtectedLine) -> ReadCheck {
        if Self::data_crc(&line.data) != line.crc {
            return self.repair(line);
        }
        let ecc = self.signature(&line.data, line.crc);
        if ecc == line.ecc {
            return ReadCheck::Clean;
        }
        ReadCheck::Corrected {
            repaired: ProtectedLine { ecc, ..*line },
            kind: RepairKind::EccField,
        }
    }

    fn repair(&self, line: &ProtectedLine) -> ReadCheck {
        let syndrome = (self.signature(&line.data, line.crc) ^ line.ecc) as usize;
        if syndrome == 0 || syndrome > TOTAL_BITS || syndrome.is_power_of_two() {
            return ReadCheck::MultiBit;
        }
        // Codeword position p holds payload bit p − (powers of two ≤ p) − 1.
        let idx = syndrome - syndrome.ilog2() as usize - 2;
        let mut candidate = *line;
        candidate.flip_bit(idx);
        if Self::data_crc(&candidate.data) == candidate.crc {
            ReadCheck::Corrected {
                repaired: candidate,
                kind: RepairKind::PayloadBit(idx),
            }
        } else {
            ReadCheck::MultiBit
        }
    }
}

fn bitbuf_from_seed(len: usize, seed: u64) -> BitBuf {
    let mut buf = BitBuf::zeros(len);
    let mut x = seed | 1;
    for i in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buf.set(i, x & 1 == 1);
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Hamming mask kernel equals the position-table walk at payload
    /// lengths around word boundaries and at the line codec's 543 bits,
    /// for SEC and for SEC-DED.
    #[test]
    fn hamming_mask_kernel_matches_reference(
        len_sel in 0usize..5,
        seed in any::<u64>(),
        density in 0u32..4
    ) {
        let len = [1usize, 63, 64, 65, 543][len_sel];
        let mut payload = bitbuf_from_seed(len, seed);
        // Thin the payload for sparse cases (density 0 leaves it empty).
        let thin = bitbuf_from_seed(len, seed.rotate_left(17));
        for i in 0..len {
            let keep = match density {
                0 => false,
                1 => thin.get(i) && (i % 7 == 0),
                2 => thin.get(i),
                _ => true,
            };
            payload.set(i, payload.get(i) && keep);
        }
        let code = HammingSec::new(len);
        let reference = code.payload_signature_reference(&payload);
        prop_assert_eq!(code.encode(&payload), reference);
        prop_assert_eq!(code.syndrome(&payload, reference), 0);
        if len == 543 {
            let secded = HammingSecDed::new(len);
            let parity = (payload.count_ones() + reference.count_ones()) & 1;
            prop_assert_eq!(secded.encode(&payload), reference | (parity << code.check_bits()));
        }
    }

    /// `LineCodec` agrees with the `BitBuf`-payload reference codec on
    /// every entry point, for random data with 0–3 flips anywhere in the
    /// 553 stored bits: ECC-field flips, true repairs, and ECC-1
    /// miscorrections that the CRC re-check must catch.
    #[test]
    fn line_codec_matches_bitbuf_reference(
        data in arb_line_data(),
        flips in btree_set(0usize..TOTAL_BITS, 0..=3)
    ) {
        let codec = LineCodec::shared();
        let reference = ReferenceCodec::new();
        let golden = codec.encode(&data);
        prop_assert_eq!(golden, reference.encode(&data));
        let mut line = golden;
        for &f in &flips {
            line.flip_bit(f);
        }
        prop_assert_eq!(codec.validate(&line), reference.validate(&line));
        prop_assert_eq!(codec.read_check(&line), reference.read_check(&line));
        prop_assert_eq!(codec.scrub_check(&line), reference.scrub_check(&line));
    }

    /// The linear CRC re-check decides exactly as a full `crc_ok` on the
    /// repaired candidate, at all 543 payload positions: once where the
    /// candidate is the golden line, once where the ECC field is forged to
    /// blame bit `i` of an unrelated payload.
    #[test]
    fn linear_crc_recheck_matches_crc_ok(data in arb_line_data(), other in arb_line_data()) {
        let codec = LineCodec::shared();
        let code = HammingSec::new(PAYLOAD_BITS);
        let golden = codec.encode(&data);
        let forged_base = codec.encode(&other);
        // 1-based codeword position of each payload bit (powers of two
        // hold check bits).
        let positions: Vec<u32> = (1u32..).filter(|p| !p.is_power_of_two()).take(PAYLOAD_BITS).collect();
        for (i, &pos) in positions.iter().enumerate() {
            let mut single = golden;
            single.flip_bit(i);
            let mut forged = forged_base;
            forged.flip_bit((i + 1) % PAYLOAD_BITS);
            forged.ecc = (code.payload_signature_reference(&ReferenceCodec::payload(&forged.data, forged.crc)) ^ pos) as u16;
            for line in [single, forged] {
                let mut candidate = line;
                candidate.flip_bit(i);
                let expect = if codec.crc_ok(&line) {
                    ReadCheck::Clean
                } else if codec.crc_ok(&candidate) {
                    ReadCheck::Corrected { repaired: candidate, kind: RepairKind::PayloadBit(i) }
                } else {
                    ReadCheck::MultiBit
                };
                prop_assert_eq!(codec.read_check(&line), expect, "payload bit {}", i);
            }
        }
    }

    /// CRC linearity: crc(a ^ b) == crc(a) ^ crc(b).
    #[test]
    fn crc_is_linear(a in arb_line_data(), b in arb_line_data()) {
        let e = crc31();
        prop_assert_eq!(
            e.checksum_line(&a.xor(&b)),
            e.checksum_line(&a) ^ e.checksum_line(&b)
        );
    }

    /// Any 1..=3 bit error over a line is detected by CRC-31.
    #[test]
    fn crc_detects_small_errors(
        data in arb_line_data(),
        flips in btree_set(0usize..512, 1..=3)
    ) {
        let e = crc31();
        let golden = e.checksum_line(&data);
        let mut corrupted = data;
        for f in flips {
            corrupted.flip_bit(f);
        }
        prop_assert_ne!(e.checksum_line(&corrupted), golden);
    }

    /// Hamming corrects every single-bit payload error, for random payloads.
    #[test]
    fn hamming_corrects_single_errors(
        payload in arb_bitbuf(543),
        pos in 0usize..543
    ) {
        let code = HammingSec::new(543);
        let check = code.encode(&payload);
        let mut corrupted = payload.clone();
        corrupted.flip(pos);
        let outcome = code.decode(&mut corrupted, check);
        prop_assert_eq!(outcome, HammingOutcome::CorrectedPayload(pos));
        prop_assert_eq!(corrupted, payload);
    }

    /// Line codec: encode/validate roundtrip and single-fault repair at any
    /// of the 553 stored positions.
    #[test]
    fn line_codec_repairs_any_single_fault(
        data in arb_line_data(),
        pos in 0usize..TOTAL_BITS
    ) {
        let codec = LineCodec::shared();
        let golden = codec.encode(&data);
        prop_assert!(codec.validate(&golden));
        let mut line = golden;
        line.flip_bit(pos);
        match codec.scrub_check(&line) {
            ReadCheck::Corrected { repaired, .. } => prop_assert_eq!(repaired, golden),
            other => return Err(TestCaseError::fail(format!("pos {pos}: {other:?}"))),
        }
    }

    /// Line codec flags any injected double fault as multi-bit (never a
    /// silent wrong repair) — CRC-31 guarantees detection of ≤7 faults.
    #[test]
    fn line_codec_flags_double_faults(
        data in arb_line_data(),
        flips in btree_set(0usize..TOTAL_BITS, 2..=2)
    ) {
        let codec = LineCodec::shared();
        let golden = codec.encode(&data);
        let mut line = golden;
        for &f in &flips {
            line.flip_bit(f);
        }
        match codec.read_check(&line) {
            ReadCheck::MultiBit => {}
            ReadCheck::Clean => {
                // Both flips were in the ECC field: invisible to the read
                // path by design; the scrubber must still not mis-repair.
                prop_assert!(flips.iter().all(|&f| f >= 543));
            }
            ReadCheck::Corrected { repaired, .. } => {
                // A "repair" that does not restore golden would be an SDC;
                // CRC-31 detects all ≤7-bit errors so this must be golden.
                prop_assert_eq!(repaired, golden);
            }
        }
    }

    /// RAID-4: reconstruction recovers any erased member of a random group.
    #[test]
    fn raid4_reconstructs_any_member(
        seeds in prop::collection::vec(any::<u64>(), 2..12),
        victim_sel in any::<prop::sample::Index>()
    ) {
        let codec = LineCodec::shared();
        let lines: Vec<ProtectedLine> = seeds
            .iter()
            .map(|&s| {
                let mut d = LineData::zero();
                let mut x = s | 1;
                for i in 0..512 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x & 1 == 1 {
                        d.set_bit(i, true);
                    }
                }
                codec.encode(&d)
            })
            .collect();
        let parity = group_parity(lines.iter());
        let victim = victim_sel.index(lines.len());
        let rebuilt = reconstruct(
            &parity,
            lines.iter().enumerate().filter(|(i, _)| *i != victim).map(|(_, l)| l),
        );
        prop_assert_eq!(rebuilt, lines[victim]);
    }

    /// BCH (t=3): corrects any ≤3 random errors across the codeword.
    #[test]
    fn bch_corrects_random_errors(
        data in arb_bitbuf(512),
        flips in btree_set(0usize..542, 1..=3)
    ) {
        let code = line_ecc(3).unwrap();
        let golden_parity = code.encode(&data);
        let mut rx_data = data.clone();
        let mut rx_parity = golden_parity.clone();
        for &f in &flips {
            if f < 30 {
                rx_parity.flip(f);
            } else {
                rx_data.flip(f - 30);
            }
        }
        let outcome = code.decode(&mut rx_data, &mut rx_parity);
        prop_assert!(matches!(outcome, BchOutcome::Corrected(_)));
        prop_assert_eq!(rx_data, data);
        prop_assert_eq!(rx_parity, golden_parity);
    }

    /// BCH never reports Clean when errors are present (any count 1..=8).
    #[test]
    fn bch_never_clean_with_errors(
        data in arb_bitbuf(512),
        flips in btree_set(0usize..512, 1..=8)
    ) {
        let code = line_ecc(2).unwrap();
        let mut parity = code.encode(&data);
        let mut rx = data.clone();
        for &f in &flips {
            rx.flip(f);
        }
        let outcome = code.decode(&mut rx, &mut parity);
        prop_assert_ne!(outcome, BchOutcome::Clean);
    }

    /// The slice-by-8 byte kernel and the word-walking `checksum_bits`
    /// kernel agree with the bit/byte-serial references at every length
    /// 0..=1024 bits.
    #[test]
    fn crc_word_kernels_match_reference(len in 0usize..=1024, seed in any::<u64>()) {
        let e = crc31();
        let mut buf = BitBuf::zeros(len);
        let mut x = seed | 1;
        for i in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 1 {
                buf.set(i, true);
            }
        }
        prop_assert_eq!(e.checksum_bits(&buf), e.checksum_bits_reference(&buf));
        if len % 8 == 0 {
            // Byte-aligned: both word kernels must also match the
            // byte-serial reference over the same octet stream.
            let bytes: Vec<u8> = (0..len / 8)
                .map(|j| (buf.words()[j / 8] >> (8 * (j % 8))) as u8)
                .collect();
            prop_assert_eq!(e.checksum_bytes(&bytes), e.checksum_bytes_reference(&bytes));
            prop_assert_eq!(e.checksum_bits(&buf), e.checksum_bytes_reference(&bytes));
        }
    }
}
