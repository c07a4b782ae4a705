//! Edge-list I/O: whitespace-separated text and a compact binary format.
//!
//! The text format is line-oriented `src dst [weight]`, compatible with the
//! SNAP / LAW edge lists the paper's datasets ship as; `#`-prefixed lines
//! are comments.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::edge::{Edge, EdgeList};
use crate::types::VertexId;

/// Magic bytes identifying the binary format ("CGRB" + version 1).
const BINARY_MAGIC: [u8; 5] = *b"CGRB\x01";

/// Errors raised by the loaders.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line or record, with its 1-based position.
    Parse { line: usize, message: String },
    /// The binary header did not match.
    BadMagic,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            IoError::BadMagic => write!(f, "not a CGraph binary edge list"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads a text edge list from `reader`.
pub fn read_text<R: Read>(reader: R) -> Result<EdgeList, IoError> {
    let buf = BufReader::new(reader);
    let mut edges = Vec::new();
    for (idx, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let src: VertexId = parse_field(it.next(), idx, "missing src")?;
        let dst: VertexId = parse_field(it.next(), idx, "missing dst")?;
        let weight = match it.next() {
            Some(w) => w.parse::<f32>().map_err(|e| IoError::Parse {
                line: idx + 1,
                message: format!("bad weight: {e}"),
            })?,
            None => 1.0,
        };
        edges.push(Edge::weighted(src, dst, weight));
    }
    Ok(EdgeList::from_edges(edges, 0))
}

fn parse_field(field: Option<&str>, idx: usize, missing: &str) -> Result<VertexId, IoError> {
    let s = field.ok_or_else(|| IoError::Parse { line: idx + 1, message: missing.to_string() })?;
    s.parse::<VertexId>()
        .map_err(|e| IoError::Parse { line: idx + 1, message: format!("bad vertex id {s:?}: {e}") })
}

/// Loads a text edge list from a file path.
pub fn load_text<P: AsRef<Path>>(path: P) -> Result<EdgeList, IoError> {
    read_text(File::open(path)?)
}

/// Writes a text edge list (weights included when not `1.0`).
pub fn write_text<W: Write>(edges: &EdgeList, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# cgraph edge list: {} vertices", edges.num_vertices())?;
    for e in edges.edges() {
        if (e.weight - 1.0).abs() < f32::EPSILON {
            writeln!(w, "{} {}", e.src, e.dst)?;
        } else {
            writeln!(w, "{} {} {}", e.src, e.dst, e.weight)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Saves a text edge list to a file path.
pub fn save_text<P: AsRef<Path>>(edges: &EdgeList, path: P) -> Result<(), IoError> {
    write_text(edges, File::create(path)?)
}

/// Writes the compact binary format (little-endian, fixed-width records).
pub fn write_binary<W: Write>(edges: &EdgeList, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(&BINARY_MAGIC)?;
    w.write_all(&edges.num_vertices().to_le_bytes())?;
    w.write_all(&(edges.len() as u64).to_le_bytes())?;
    for e in edges.edges() {
        w.write_all(&e.src.to_le_bytes())?;
        w.write_all(&e.dst.to_le_bytes())?;
        w.write_all(&e.weight.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads the compact binary format.
pub fn read_binary<R: Read>(reader: R) -> Result<EdgeList, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 5];
    r.read_exact(&mut magic)?;
    if magic != BINARY_MAGIC {
        return Err(IoError::BadMagic);
    }
    let mut b4 = [0u8; 4];
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b4)?;
    let num_vertices = VertexId::from_le_bytes(b4);
    r.read_exact(&mut b8)?;
    let m = u64::from_le_bytes(b8);
    let mut edges = Vec::with_capacity(m as usize);
    for i in 0..m {
        let mut rec = [0u8; 12];
        r.read_exact(&mut rec).map_err(|e| IoError::Parse {
            line: i as usize + 1,
            message: format!("truncated record: {e}"),
        })?;
        edges.push(Edge::weighted(
            VertexId::from_le_bytes(rec[0..4].try_into().expect("slice length 4")),
            VertexId::from_le_bytes(rec[4..8].try_into().expect("slice length 4")),
            f32::from_le_bytes(rec[8..12].try_into().expect("slice length 4")),
        ));
    }
    Ok(EdgeList::from_edges(edges, num_vertices))
}

/// Saves the binary format to a file path.
pub fn save_binary<P: AsRef<Path>>(edges: &EdgeList, path: P) -> Result<(), IoError> {
    write_binary(edges, File::create(path)?)
}

/// Loads the binary format from a file path.
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<EdgeList, IoError> {
    read_binary(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample() -> EdgeList {
        GraphBuilder::new(5)
            .weighted_edge(0, 1, 1.0)
            .weighted_edge(1, 2, 2.5)
            .weighted_edge(4, 0, 1.0)
            .build()
    }

    #[test]
    fn text_round_trip() {
        let el = sample();
        let mut buf = Vec::new();
        write_text(&el, &mut buf).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(back.edges(), el.edges());
        assert_eq!(back.num_vertices(), el.num_vertices());
    }

    #[test]
    fn text_parses_comments_and_default_weight() {
        let input = "# header\n0 1\n\n2 3 4.5\n";
        let el = read_text(input.as_bytes()).unwrap();
        assert_eq!(el.len(), 2);
        assert_eq!(el.edges()[0].weight, 1.0);
        assert_eq!(el.edges()[1].weight, 4.5);
    }

    #[test]
    fn text_reports_bad_lines() {
        let err = read_text("0 x\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn text_reports_missing_dst() {
        assert!(read_text("42\n".as_bytes()).is_err());
    }

    #[test]
    fn binary_round_trip() {
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&el, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back.edges(), el.edges());
        assert_eq!(back.num_vertices(), el.num_vertices());
    }

    #[test]
    fn binary_rejects_garbage() {
        let err = read_binary(&b"NOTCG...."[..]).unwrap_err();
        assert!(matches!(err, IoError::BadMagic));
    }

    #[test]
    fn binary_rejects_truncation() {
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&el, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cgraph-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("g.bin");
        let el = sample();
        save_binary(&el, &p).unwrap();
        let back = load_binary(&p).unwrap();
        assert_eq!(back.edges(), el.edges());
        std::fs::remove_file(&p).ok();
    }
}
