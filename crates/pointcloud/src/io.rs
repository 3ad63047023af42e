//! Plain-text point-cloud IO (`.xyz` format: one `x y z [f0 f1 ...]` line
//! per point). Keeps the repository self-contained without binary format
//! dependencies.

use crate::cloud::PointCloud;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Serializes a cloud as xyz text. A mutable reference to any `Write`
/// implementor can be passed (e.g. `&mut file`).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_xyz<W: Write>(cloud: &PointCloud, mut w: W) -> io::Result<()> {
    let ch = cloud.feature_channels();
    let mut line = String::new();
    for (i, p) in cloud.points().iter().enumerate() {
        line.clear();
        write!(line, "{} {} {}", p[0], p[1], p[2]).expect("string write is infallible");
        if ch > 0 {
            for f in cloud.feature(i).expect("ch > 0") {
                write!(line, " {f}").expect("string write is infallible");
            }
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Parses xyz text into a cloud. Feature channel count is inferred from the
/// first non-empty line; `#`-prefixed lines are comments.
///
/// # Errors
///
/// Returns `io::ErrorKind::InvalidData` on malformed lines, non-finite
/// values (`nan`, `inf`) or inconsistent column counts, and propagates
/// reader errors.
pub fn read_xyz<R: Read>(r: R) -> io::Result<PointCloud> {
    let reader = BufReader::new(r);
    let mut cloud: Option<PointCloud> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let vals: Vec<f32> = line
            .split_whitespace()
            .map(|tok| {
                let reason = match tok.parse::<f32>() {
                    Ok(v) if v.is_finite() => return Ok(v),
                    Ok(_) => "non-finite value".to_string(),
                    Err(e) => format!("{e}"),
                };
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad number {tok:?}: {reason}", lineno + 1),
                ))
            })
            .collect::<io::Result<_>>()?;
        if vals.len() < 3 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: expected at least 3 columns", lineno + 1),
            ));
        }
        let ch = vals.len() - 3;
        let cloud = cloud.get_or_insert_with(|| {
            if ch == 0 {
                PointCloud::new()
            } else {
                PointCloud::with_features(ch)
            }
        });
        if cloud.feature_channels() != ch {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "line {}: inconsistent column count ({} features, expected {})",
                    lineno + 1,
                    ch,
                    cloud.feature_channels()
                ),
            ));
        }
        let p = [vals[0], vals[1], vals[2]];
        if ch == 0 {
            cloud.push(p);
        } else {
            cloud.push_with_features(p, &vals[3..]);
        }
    }
    Ok(cloud.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_geometry_only() {
        let cloud: PointCloud = vec![[1.0, 2.0, 3.0], [-0.5, 0.25, 8.0]]
            .into_iter()
            .collect();
        let mut buf = Vec::new();
        write_xyz(&cloud, &mut buf).unwrap();
        let back = read_xyz(&buf[..]).unwrap();
        assert_eq!(cloud, back);
    }

    #[test]
    fn roundtrip_with_features() {
        let mut cloud = PointCloud::with_features(2);
        cloud.push_with_features([0.0, 1.0, 2.0], &[0.5, -0.5]);
        cloud.push_with_features([3.0, 4.0, 5.0], &[1.5, 2.5]);
        let mut buf = Vec::new();
        write_xyz(&cloud, &mut buf).unwrap();
        let back = read_xyz(&buf[..]).unwrap();
        assert_eq!(cloud, back);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\n1 2 3\n# mid\n4 5 6\n";
        let c = read_xyz(text.as_bytes()).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn malformed_line_is_invalid_data() {
        let err = read_xyz("1 2 x\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = read_xyz("1 2\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn non_finite_values_are_invalid_data() {
        let err = read_xyz("nan 1 2\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = read_xyz("0 0 0 1\n1 2 3 inf\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = read_xyz("1 2 3 inf\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = read_xyz("-nan 1 2\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn inconsistent_columns_rejected() {
        let err = read_xyz("1 2 3 4\n1 2 3\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_input_gives_empty_cloud() {
        let c = read_xyz("".as_bytes()).unwrap();
        assert!(c.is_empty());
    }
}
