//! A minimal HTTP/1.1 request parser and response writer.
//!
//! Only what the control endpoint needs: the request line of a `GET` (method +
//! percent-decoded path), headers skipped, every response `Connection: close`.

use std::io::{Read, Write};

/// Upper bound on the request head we are willing to buffer.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request line.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Request {
    /// The HTTP method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// The percent-decoded path, query string stripped.
    pub path: String,
}

/// Reads one request head from `stream` and parses its request line.
///
/// Returns `None` on malformed input (the caller drops the connection).
pub(crate) fn read_request(stream: &mut impl Read) -> Option<Request> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    // Byte-at-a-time is fine: requests are a few hundred bytes and the accept
    // loop is not a throughput path.
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD_BYTES {
            return None;
        }
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => return None,
        }
    }
    let head = std::str::from_utf8(&head).ok()?;
    let request_line = head.lines().next()?;
    parse_request_line(request_line)
}

/// Parses `"GET /path?query HTTP/1.1"` into a [`Request`].
pub(crate) fn parse_request_line(line: &str) -> Option<Request> {
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/") {
        return None;
    }
    let path = target.split('?').next().unwrap_or(target);
    Some(Request {
        method,
        path: percent_decode(path),
    })
}

/// Decodes `%XX` escapes (and `+` as space) in a URL path component. An escape is
/// exactly two ASCII hex digits; anything else after a `%` passes through as is.
pub(crate) fn percent_decode(s: &str) -> String {
    fn hex(digit: u8) -> Option<u8> {
        char::from(digit).to_digit(16).map(|d| d as u8)
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let escaped = match bytes.get(i + 1..i + 3) {
                    Some(&[high, low]) => hex(high).zip(hex(low)).map(|(h, l)| h << 4 | l),
                    _ => None,
                };
                match escaped {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One response: status, content type and body.
pub(crate) struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// The standard 404.
    pub fn not_found(what: &str) -> Self {
        Response::text(404, format!("not found: {what}\n"))
    }
}

/// Writes `response` to `stream` as a complete HTTP/1.1 message.
pub(crate) fn write_response(stream: &mut impl Write, response: &Response) -> std::io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason,
        response.content_type,
        response.body.len()
    )?;
    stream.write_all(&response.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_line_and_strips_query() {
        let req = parse_request_line("GET /metrics?x=1 HTTP/1.1").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(parse_request_line("GARBAGE").is_none());
        assert!(parse_request_line("GET /x NOTHTTP").is_none());
    }

    #[test]
    fn percent_decoding_handles_escapes_and_junk() {
        assert_eq!(percent_decode("/provenance/3%233"), "/provenance/3#3");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%"), "100%", "trailing % passes through");
        assert_eq!(percent_decode("%zz"), "%zz", "bad hex passes through");
        assert_eq!(percent_decode("%+1"), "% 1", "a sign is not a hex digit");
        assert_eq!(percent_decode("%-1x"), "%-1x");
        assert_eq!(percent_decode("%4a%4A"), "JJ", "either case");
        assert_eq!(percent_decode("%e2%82%ac"), "\u{20ac}", "multi-byte UTF-8");
    }

    /// The hostile-input treatment the byte decoders get: every truncation and
    /// every single-bit flip of a valid request head reads as `None` or a
    /// `Request`, and never panics; a head longer than the bound is refused.
    #[test]
    fn hostile_request_heads_never_panic() {
        let valid = b"GET /provenance/0-7%23x?full=1 HTTP/1.1\r\nHost: spe\r\n\r\n";
        let expected = read_request(&mut &valid[..]).expect("the valid head parses");
        assert_eq!(expected.path, "/provenance/0-7#x");
        for len in 0..valid.len() {
            assert!(
                read_request(&mut &valid[..len]).is_none(),
                "a head cut at {len} bytes has no terminating blank line"
            );
        }
        for byte in 0..valid.len() {
            for bit in 0..8 {
                let mut flipped = valid.to_vec();
                flipped[byte] ^= 1 << bit;
                let _ = read_request(&mut &flipped[..]);
                if let Ok(text) = std::str::from_utf8(&flipped) {
                    if let Some(line) = text.lines().next() {
                        let _ = parse_request_line(line);
                    }
                    let _ = percent_decode(text);
                }
            }
        }

        let mut long = b"GET /".to_vec();
        long.resize(MAX_HEAD_BYTES, b'a');
        long.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert!(read_request(&mut &long[..]).is_none(), "an oversized head");
        let mut fits = b"GET /".to_vec();
        fits.resize(MAX_HEAD_BYTES - 13, b'a');
        fits.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(fits.len(), MAX_HEAD_BYTES);
        assert!(
            read_request(&mut &fits[..]).is_some(),
            "a head at the bound"
        );
    }

    #[test]
    fn reads_a_full_request_head() {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.path, "/healthz");
        // Truncated head: no terminating blank line.
        assert!(read_request(&mut &b"GET /x HTTP/1.1\r\n"[..]).is_none());
    }

    #[test]
    fn responses_carry_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::text(200, "ok\n")).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }
}
