//! Compact binary codec.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   b"TRAJ"            4 bytes
//! version u16                currently 1
//! dim     u16                D
//! count   u64                number of trajectories
//! per trajectory:
//!   len   u64                number of samples
//!   flags u8                 bit 0: explicit timestamps present
//!   points    len·D f64
//!   timestamps len f64       only if flag bit 0
//! ```

use crate::{IoError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Read, Write};
use trajsim_core::{Dataset, Point, Trajectory};

const MAGIC: &[u8; 4] = b"TRAJ";
const VERSION: u16 = 1;
const FLAG_TIMESTAMPS: u8 = 1;

/// Serializes a dataset to the binary format.
pub fn write_binary<const D: usize, W: Write>(mut w: W, dataset: &Dataset<D>) -> Result<()> {
    let mut buf = BytesMut::with_capacity(16 + dataset.len() * 16);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(D as u16);
    buf.put_u64_le(dataset.len() as u64);
    for (_, t) in dataset.iter() {
        buf.put_u64_le(t.len() as u64);
        let has_ts = t.timestamps().is_some();
        buf.put_u8(if has_ts { FLAG_TIMESTAMPS } else { 0 });
        for p in t.iter() {
            for k in 0..D {
                buf.put_f64_le(p[k]);
            }
        }
        if let Some(ts) = t.timestamps() {
            for &v in ts {
                buf.put_f64_le(v);
            }
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Deserializes a dataset from the binary format.
///
/// # Errors
///
/// [`IoError::Binary`] for a bad magic, version, dimension mismatch,
/// truncated payload, or a NaN or infinite coordinate (the message names
/// the trajectory index).
pub fn read_binary<const D: usize, R: Read>(mut r: R) -> Result<Dataset<D>> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    let mut buf = Bytes::from(raw);

    ensure(buf.remaining() >= 16, "truncated header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    ensure(&magic == MAGIC, "bad magic")?;
    let version = buf.get_u16_le();
    ensure(version == VERSION, format!("unsupported version {version}"))?;
    let dim = buf.get_u16_le() as usize;
    ensure(
        dim == D,
        format!("dimension mismatch: file has {dim}, caller wants {D}"),
    )?;
    let count = buf.get_u64_le() as usize;

    let mut trajectories = Vec::with_capacity(count.min(1 << 20));
    for i in 0..count {
        ensure(buf.remaining() >= 9, format!("truncated at trajectory {i}"))?;
        let len = buf.get_u64_le() as usize;
        let flags = buf.get_u8();
        let has_ts = flags & FLAG_TIMESTAMPS != 0;
        let need = len
            .checked_mul(D)
            .and_then(|n| n.checked_mul(8))
            .and_then(|n| n.checked_add(if has_ts { len * 8 } else { 0 }))
            .ok_or_else(|| IoError::Binary("length overflow".into()))?;
        ensure(
            buf.remaining() >= need,
            format!("truncated body at trajectory {i}"),
        )?;
        let mut points = Vec::with_capacity(len);
        for j in 0..len {
            let mut c = [0.0f64; D];
            for v in c.iter_mut() {
                *v = buf.get_f64_le();
            }
            // Same rule as `read_csv`: one NaN would poison σ, and
            // normalization would then silently zero the dimension.
            if !c.iter().all(|v| v.is_finite()) {
                return Err(IoError::Binary(format!(
                    "non-finite coordinate at trajectory {i}, point {j}"
                )));
            }
            points.push(Point::new(c));
        }
        let t = if has_ts {
            let mut ts = Vec::with_capacity(len);
            for _ in 0..len {
                ts.push(buf.get_f64_le());
            }
            Trajectory::with_timestamps(points, ts).map_err(|e| IoError::Binary(e.to_string()))?
        } else {
            Trajectory::new(points)
        };
        trajectories.push(t);
    }
    ensure(!buf.has_remaining(), "trailing bytes after payload")?;
    Ok(Dataset::new(trajectories))
}

fn ensure(cond: bool, reason: impl Into<String>) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(IoError::Binary(reason.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trajsim_core::{Trajectory2, Trajectory3};

    fn roundtrip<const D: usize>(ds: &Dataset<D>) -> Dataset<D> {
        let mut buf = Vec::new();
        write_binary(&mut buf, ds).unwrap();
        read_binary(&buf[..]).unwrap()
    }

    #[test]
    fn roundtrips_including_timestamps() {
        let with_ts = Trajectory2::with_timestamps(
            vec![
                trajsim_core::Point2::xy(1.0, 2.0),
                trajsim_core::Point2::xy(3.0, 4.0),
            ],
            vec![10.5, 11.0],
        )
        .unwrap();
        let ds = Dataset::new(vec![with_ts, Trajectory2::from_xy(&[(0.0, -1.0)])]);
        let back = roundtrip(&ds);
        assert_eq!(back, ds);
        assert_eq!(back.get(0).unwrap().timestamps(), Some(&[10.5, 11.0][..]));
        assert_eq!(back.get(1).unwrap().timestamps(), None);
    }

    #[test]
    fn three_dimensional_roundtrip() {
        let ds: Dataset<3> = Dataset::new(vec![Trajectory3::from_coords([
            [1.0, 2.0, 3.0],
            [4.0, 5.0, 6.0],
        ])]);
        assert_eq!(roundtrip(&ds), ds);
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds: Dataset<2> = Dataset::default();
        assert_eq!(roundtrip(&ds), ds);
    }

    #[test]
    fn rejects_corruption() {
        let ds = Dataset::new(vec![Trajectory2::from_xy(&[(1.0, 2.0)])]);
        let mut buf = Vec::new();
        write_binary(&mut buf, &ds).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_binary::<2, _>(&bad[..]),
            Err(IoError::Binary(_))
        ));
        // Wrong dimension.
        assert!(matches!(
            read_binary::<3, _>(&buf[..]),
            Err(IoError::Binary(_))
        ));
        // Truncation.
        assert!(read_binary::<2, _>(&buf[..buf.len() - 4]).is_err());
        // Trailing garbage.
        let mut long = buf.clone();
        long.push(0);
        assert!(read_binary::<2, _>(&long[..]).is_err());
        // Unsupported version.
        let mut vbad = buf.clone();
        vbad[4] = 99;
        assert!(read_binary::<2, _>(&vbad[..]).is_err());
    }

    /// The error message of a failed read, which must be a binary-format
    /// error.
    fn binary_error(bytes: &[u8]) -> String {
        match read_binary::<2, _>(bytes) {
            Err(IoError::Binary(reason)) => reason,
            other => panic!("expected a binary-format error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_finite_coordinates() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let ds = Dataset::new(vec![
                Trajectory2::from_xy(&[(1.0, 2.0)]),
                Trajectory2::from_xy(&[(0.0, 0.0), (3.0, bad)]),
            ]);
            let mut buf = Vec::new();
            write_binary(&mut buf, &ds).unwrap();
            let reason = binary_error(&buf);
            assert!(
                reason.contains("non-finite") && reason.contains("trajectory 1"),
                "{bad}: {reason}"
            );
        }
    }

    #[test]
    fn rejects_a_truncated_body() {
        let ds = Dataset::new(vec![
            Trajectory2::from_xy(&[(1.0, 2.0)]),
            Trajectory2::from_xy(&[(0.0, 0.0), (3.0, 4.0)]),
        ]);
        let mut buf = Vec::new();
        write_binary(&mut buf, &ds).unwrap();
        // Drop the last coordinate: the second trajectory's body is short.
        let reason = binary_error(&buf[..buf.len() - 8]);
        assert!(
            reason.contains("truncated body at trajectory 1"),
            "{reason}"
        );
    }

    #[test]
    fn hostile_length_does_not_allocate() {
        // A header claiming a gigantic trajectory must fail cleanly, not
        // OOM: the length is validated against remaining bytes first.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"TRAJ");
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes()); // one trajectory
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd length
        buf.push(0);
        assert!(read_binary::<2, _>(&buf[..]).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Binary roundtrips are bit-exact for arbitrary finite data.
        #[test]
        fn roundtrip_is_exact(
            trajs in proptest::collection::vec(
                proptest::collection::vec((-1e12..1e12f64, -1e12..1e12f64), 0..12),
                0..8,
            ),
        ) {
            let ds = Dataset::new(trajs.iter().map(|t| Trajectory2::from_xy(t)).collect());
            prop_assert_eq!(roundtrip(&ds), ds);
        }
    }
}
