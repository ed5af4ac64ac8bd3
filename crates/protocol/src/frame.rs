//! The frame layer: length-prefixed, CRC-checked, versioned envelopes.
//!
//! Every message travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic    b"SGWP"
//! 4       2     version  u16 LE (PROTOCOL_VERSION)
//! 6       2     reserved (zero; room for flags/compression)
//! 8       4     length   u32 LE, payload bytes
//! 12      4     crc32    u32 LE, CRC-32/IEEE of the payload
//! 16      n     payload
//! ```
//!
//! The design mirrors the spill codec in `sigma_cdw::storage` (length
//! prefix bounds every allocation before it happens) and adds what a
//! network boundary needs on top of a trusted local disk: a magic number
//! so a stray connection fails fast, a version so old clients get a clean
//! [`FrameError::UnsupportedVersion`] instead of a parse panic, and a CRC
//! so corruption is detected before the payload reaches serde.

use std::io::{Read, Write};

/// Frame magic: "SiGma Wire Protocol".
pub const MAGIC: [u8; 4] = *b"SGWP";

/// Current protocol version. Bump on any incompatible message change.
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard cap on payload size (64 MiB): a corrupt or hostile length prefix
/// must not size an arbitrary allocation.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Frame header size in bytes.
pub const HEADER_BYTES: usize = 16;

/// Everything that can go wrong at the frame layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The underlying stream failed (includes clean EOF between frames).
    Io(String),
    /// The peer closed the connection cleanly before a frame started.
    Closed,
    /// The stream ended mid-frame.
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version we do not.
    UnsupportedVersion(u16),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(u32),
    /// The payload arrived but its CRC does not match.
    Corrupt { expected: u32, actual: u32 },
    /// The frame arrived intact but its payload is not a valid message
    /// (bad UTF-8 or JSON, nesting past the parser's limit, wrong shape).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(m) => write!(f, "frame io: {m}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (ours: {PROTOCOL_VERSION})"
                )
            }
            FrameError::TooLarge(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            FrameError::Corrupt { expected, actual } => write!(
                f,
                "frame payload corrupt: crc {actual:08x}, header says {expected:08x}"
            ),
            FrameError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC-32/IEEE (the polynomial used by zip, PNG, and Ethernet), bytewise
/// table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Serialize one payload into a self-contained frame.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    if payload.len() > MAX_FRAME_BYTES as usize {
        return Err(FrameError::TooLarge(payload.len() as u32));
    }
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Write one frame to a stream.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    let frame = encode_frame(payload)?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| FrameError::Io(e.to_string()))
}

/// Read one frame's payload from a stream, validating magic, version,
/// length, and CRC. A clean EOF *before* any header byte reads as
/// [`FrameError::Closed`]; an EOF mid-frame is [`FrameError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    let mut filled = 0;
    while filled < HEADER_BYTES {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    decode_header(&header).and_then(|len| {
        let mut payload = vec![0u8; len as usize];
        read_exact(r, &mut payload)?;
        let expected = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        let actual = crc32(&payload);
        if actual != expected {
            return Err(FrameError::Corrupt { expected, actual });
        }
        Ok(payload)
    })
}

/// Validate a header and return the payload length it promises.
fn decode_header(header: &[u8; HEADER_BYTES]) -> Result<u32, FrameError> {
    if header[..4] != MAGIC {
        return Err(FrameError::BadMagic(
            header[..4].try_into().expect("4 bytes"),
        ));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    Ok(len)
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frame_round_trip() {
        let payload = b"hello workbook".to_vec();
        let frame = encode_frame(&payload).unwrap();
        assert_eq!(frame.len(), HEADER_BYTES + payload.len());
        let mut cursor = std::io::Cursor::new(frame);
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        // Stream exhausted: the next read reports a clean close.
        assert_eq!(read_frame(&mut cursor).unwrap_err(), FrameError::Closed);
    }

    #[test]
    fn two_frames_back_to_back() {
        let mut stream = encode_frame(b"first").unwrap();
        stream.extend(encode_frame(b"second").unwrap());
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"first");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"second");
    }
}
