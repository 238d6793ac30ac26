//! Delta snapshots: ship only the changed section groups of a `.mc2s`
//! container, layered onto a fingerprinted base.
//!
//! # Format
//!
//! ```text
//! magic      [u8; 4] = b"MC2D"
//! version    u32     = snapshot::VERSION (the container version spliced)
//! base_len   u64     byte length of the base container
//! base_crc   u32     CRC-32 (IEEE) over the *entire* base container
//! n_entries  u64
//! per entry, strictly increasing by index:
//!     index  u32     section position in the base's frame order
//!     frame  u64-length-prefixed bytes: the replacement section frame,
//!            verbatim (tag + len + crc + payload)
//! ```
//!
//! A delta is pure frame splicing: [`diff`] records every section whose
//! frame bytes differ between two structurally identical containers, and
//! [`apply`] replaces those frames in the base. Correctness leans on the
//! container's own defenses rather than duplicating them — the spliced
//! result is **re-validated by the caller** exactly like a full snapshot
//! (framing, per-section CRCs, CSR invariants), so a corrupted delta
//! payload surfaces as the same typed [`SnapshotError`] a corrupted full
//! snapshot would, and a delta applied to the wrong base dies on the
//! fingerprint before any splicing happens.

use crate::error::SnapshotError;
use crate::snapshot::{walk_frames, HEADER_LEN, VERSION};
use mc2ls_geo::codec::crc32;
use mc2ls_geo::{ByteReader, ByteWriter, CodecError};

/// Delta file magic: "MC2D".
pub const MAGIC: [u8; 4] = *b"MC2D";

/// Whether `bytes` starts with the delta magic — how reload paths decide
/// between a full snapshot and a delta without a second read.
pub fn is_delta(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == MAGIC
}

/// Computes the delta that turns `base` into `target`. Both must be valid
/// v2 containers with the *same section structure* (equal section counts
/// and tag sequences — i.e. the same shard manifest shape); the delta then
/// carries every section whose frame bytes differ.
///
/// # Errors
/// Any [`walk_frames`] error on either container, or
/// [`SnapshotError::BadDelta`] when the two containers' section structures
/// disagree (a delta cannot add or remove sections).
pub fn diff(base: &[u8], target: &[u8]) -> Result<Vec<u8>, SnapshotError> {
    let base_frames = walk_frames(base)?;
    let target_frames = walk_frames(target)?;
    if base_frames.len() != target_frames.len() {
        return Err(SnapshotError::BadDelta(
            "base and target have different section counts",
        ));
    }
    if base_frames
        .iter()
        .zip(&target_frames)
        .any(|(b, t)| b.tag != t.tag)
    {
        return Err(SnapshotError::BadDelta(
            "base and target have different section layouts",
        ));
    }

    let mut w = ByteWriter::with_capacity(64);
    w.put_bytes(&MAGIC);
    w.put_u32(VERSION);
    w.put_u64(base.len() as u64);
    w.put_u32(crc32(base));
    let changed: Vec<(usize, &[u8])> = base_frames
        .iter()
        .zip(&target_frames)
        .enumerate()
        .filter(|(_, (b, t))| base[b.frame.clone()] != target[t.frame.clone()])
        .map(|(i, (_, t))| (i, &target[t.frame.clone()]))
        .collect();
    w.put_len(changed.len());
    for (index, frame) in changed {
        // lint:allow(narrowing-cast): section counts are 2 + 3 * shards, far below u32
        w.put_u32(index as u32);
        w.put_u64(frame.len() as u64);
        w.put_bytes(frame);
    }
    Ok(w.into_bytes())
}

/// Applies `delta` to `base`, returning the spliced container bytes.
///
/// The caller **must** re-validate the result (e.g. via
/// [`crate::view::LoadedSnapshot::from_bytes`]) — splicing checks the
/// delta's own framing and the base fingerprint, not the artifact
/// invariants of the replacement payloads.
///
/// # Errors
/// [`SnapshotError::BadDelta`] on a malformed delta,
/// [`SnapshotError::DeltaBaseMismatch`] when `base` is not the container
/// the delta was diffed against, and any [`walk_frames`] error when `base`
/// itself is malformed.
pub fn apply(base: &[u8], delta: &[u8]) -> Result<Vec<u8>, SnapshotError> {
    let structural = |source: CodecError| {
        let _ = source;
        SnapshotError::BadDelta("delta truncated or malformed")
    };
    let mut r = ByteReader::new(delta);
    let magic = r.take(4).map_err(structural)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadDelta("not an mc2d delta (magic)"));
    }
    let version = r.get_u32().map_err(structural)?;
    if version != VERSION {
        return Err(SnapshotError::BadDelta("delta targets another version"));
    }
    let base_len = r.get_u64().map_err(structural)?;
    let base_crc = r.get_u32().map_err(structural)?;
    if base_len != base.len() as u64 || base_crc != crc32(base) {
        return Err(SnapshotError::DeltaBaseMismatch);
    }
    let base_frames = walk_frames(base)?;

    let n_entries = r.get_len("delta entries", 12).map_err(structural)?;
    let mut entries: Vec<(usize, &[u8])> = Vec::with_capacity(n_entries.min(1024));
    let mut prev: Option<usize> = None;
    for _ in 0..n_entries {
        let index = r.get_u32().map_err(structural)? as usize;
        let frame_len = r.get_u64().map_err(structural)?;
        let claimed = usize::try_from(frame_len)
            .map_err(|_| SnapshotError::BadDelta("delta frame length exceeds the address space"))?;
        let frame = r.take(claimed).map_err(structural)?;
        if index >= base_frames.len() {
            return Err(SnapshotError::BadDelta("delta entry outside the base"));
        }
        if prev.is_some_and(|p| index <= p) {
            return Err(SnapshotError::BadDelta(
                "delta entries must be strictly increasing",
            ));
        }
        prev = Some(index);
        entries.push((index, frame));
    }
    r.expect_end().map_err(structural)?;

    // Splice: header verbatim, then each frame, replaced where the delta
    // says so.
    let mut out = Vec::with_capacity(base.len());
    out.extend_from_slice(&base[..HEADER_LEN]);
    let mut next = entries.iter().peekable();
    for (i, frame) in base_frames.iter().enumerate() {
        match next.peek() {
            Some(&&(index, replacement)) if index == i => {
                out.extend_from_slice(replacement);
                next.next();
            }
            _ => out.extend_from_slice(&base[frame.frame.clone()]),
        }
    }
    Ok(out)
}

/// Writes `bytes` to `path` (the conventional extension is `.mc2d`)
/// through [`write_atomic`](crate::snapshot::write_atomic), so a failed
/// write never leaves a truncated delta behind.
///
/// # Errors
/// Propagates file-system failures as [`SnapshotError::Io`].
pub fn save(bytes: &[u8], path: &std::path::Path) -> Result<(), SnapshotError> {
    crate::snapshot::write_atomic(path, bytes).map_err(SnapshotError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use mc2ls_core::Problem;
    use mc2ls_geo::Point;
    use mc2ls_influence::{MovingUser, Sigmoid};

    fn problem(shift: f64) -> Problem<Sigmoid> {
        let users = (0..8)
            .map(|i| {
                let x = f64::from(i) * 0.4 - 1.6 + shift;
                MovingUser::new(vec![Point::new(x, 0.0), Point::new(x, 0.3)])
            })
            .collect();
        let facilities = vec![Point::new(6.0, 6.0)];
        let candidates = (0..5)
            .map(|i| Point::new(f64::from(i) * 0.5, 0.1))
            .collect();
        Problem::new(
            users,
            facilities,
            candidates,
            2,
            0.6,
            Sigmoid::paper_default(),
        )
    }

    fn container(shift: f64, n_shards: usize) -> Vec<u8> {
        Snapshot::build_sharded("delta-test", &problem(shift), 2.0, 1, n_shards)
            .0
            .to_bytes()
    }

    #[test]
    fn diff_then_apply_reproduces_the_target_bit_for_bit() {
        let base = container(0.0, 2);
        let target = container(0.25, 2);
        let delta = diff(&base, &target).expect("diff");
        assert!(is_delta(&delta));
        assert!(
            delta.len() < target.len(),
            "a delta should not exceed the target"
        );
        let spliced = apply(&base, &delta).expect("apply");
        assert_eq!(spliced, target);
        // An identity delta carries zero entries and still round-trips.
        let identity = diff(&base, &base).expect("identity diff");
        assert_eq!(apply(&base, &identity).expect("apply"), base);
        assert!(identity.len() < 64);
    }

    #[test]
    fn wrong_base_and_structure_mismatches_are_typed() {
        let base = container(0.0, 2);
        let other = container(0.5, 2);
        let delta = diff(&base, &container(0.25, 2)).expect("diff");
        assert!(matches!(
            apply(&other, &delta),
            Err(SnapshotError::DeltaBaseMismatch)
        ));
        // Different shard manifests → different section structure.
        assert!(matches!(
            diff(&base, &container(0.25, 4)),
            Err(SnapshotError::BadDelta(_))
        ));
        // A full snapshot is not a delta.
        assert!(matches!(
            apply(&base, &base),
            Err(SnapshotError::BadDelta(_))
        ));
    }

    #[test]
    fn corrupted_deltas_never_panic() {
        let base = container(0.0, 2);
        let delta = diff(&base, &container(0.25, 2)).expect("diff");
        // Truncations of the delta itself fail during delta parsing.
        for cut in 0..delta.len().min(64) {
            assert!(apply(&base, &delta[..cut]).is_err(), "cut={cut}");
        }
        // A flipped byte inside a replacement frame splices, but the
        // result fails container validation — the caller's contract.
        let mut bad = delta.clone();
        let at = bad.len() - 3;
        bad[at] ^= 0xFF;
        match apply(&base, &bad) {
            // Flip landed in delta framing: rejected outright.
            Err(_) => {}
            // Flip landed in a payload: the spliced container must fail
            // its CRC re-validation.
            Ok(spliced) => {
                assert!(Snapshot::from_bytes(&spliced).is_err());
            }
        }
    }
}
