//! A deliberately small HTTP/1.1 server core on `std::net` — just
//! enough protocol for the condspec daemon: request-line + header
//! parsing, `Content-Length` bodies, fixed responses, and chunked
//! transfer encoding for progress streams. No external dependencies,
//! no keep-alive (every response closes the connection), no TLS.
//!
//! The subset is intentionally strict about what it accepts: a
//! malformed request gets a `400` and a closed socket, never a panic —
//! the daemon shares a process with running sweeps. Both directions
//! size their buffers from bytes actually received, never from what the
//! peer claims: every request, status and header line is read through a
//! [`MAX_HEADER`]-byte window, and response bodies and chunks through
//! [`Read::take`] with a length check, up to [`MAX_BODY`] in all.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Maximum accepted body: of a request the server reads, and of a
/// response [`client_request`] reads. Submissions, work results and
/// rendered reports are a few KB; anything larger is an error.
pub const MAX_BODY: usize = 1 << 20;

/// Maximum accepted header block size, and so of any one header line.
const MAX_HEADER: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The path component of the request target (query stripped).
    pub path: String,
    /// Decoded query parameters in request order.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: String,
}

impl Request {
    /// First query value for `name`, if present.
    pub fn query(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// Any I/O error, plus `InvalidData` for requests that are not
/// well-formed HTTP/1.x or exceed the size limits. The caller answers
/// those with a 400.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let line = read_line_bounded(&mut reader)?;
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => {
            (m.to_string(), t.to_string(), v)
        }
        _ => return Err(bad("malformed request line")),
    };
    let _ = version;

    let mut content_length = 0usize;
    let mut header_bytes = line.len();
    loop {
        let header = read_line_bounded(&mut reader)?;
        header_bytes += header.len();
        if header_bytes > MAX_HEADER {
            return Err(bad("header block too large"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| bad("bad content-length"))?;
            if content_length > MAX_BODY {
                return Err(bad("body too large"));
            }
        }
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;

    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.clone(), ""),
    };
    let query = query_text
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();

    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Minimal percent-decoding (`%2f`, `+` as space) for query values.
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn too_large() -> io::Error {
    bad("response body exceeds MAX_BODY")
}

/// Reads one line (terminator included; empty at EOF) of at most
/// [`MAX_HEADER`] bytes. A longer line is an error rather than a buffer
/// that grows for as long as the peer keeps sending.
fn read_line_bounded(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    reader.take(MAX_HEADER as u64).read_line(&mut line)?;
    if line.len() == MAX_HEADER && !line.ends_with('\n') {
        return Err(bad("line too long"));
    }
    Ok(line)
}

/// Appends exactly `len` bytes from `reader` to `out`, growing `out` only
/// as bytes arrive; a peer that sends fewer is an error.
fn read_exactly(reader: &mut impl Read, len: usize, out: &mut Vec<u8>) -> io::Result<()> {
    let expected = out
        .len()
        .checked_add(len)
        .ok_or_else(|| bad("length overflow"))?;
    reader.take(len as u64).read_to_end(out)?;
    if out.len() != expected {
        return Err(bad("truncated body"));
    }
    Ok(())
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response and flushes.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        status_text(status),
        body.len()
    )?;
    stream.flush()
}

/// Shorthand: a JSON response (the body should already be rendered).
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    respond(stream, status, "application/json", body)
}

/// Shorthand: a plain-text response.
pub fn respond_text(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    respond(stream, status, "text/plain; charset=utf-8", body)
}

/// A chunked-transfer response in progress: call [`ChunkedResponse::chunk`]
/// per payload piece, then [`ChunkedResponse::finish`].
pub struct ChunkedResponse<'s> {
    stream: &'s mut TcpStream,
}

impl<'s> ChunkedResponse<'s> {
    /// Writes the response head and switches the connection to chunked
    /// transfer encoding.
    pub fn begin(
        stream: &'s mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> io::Result<ChunkedResponse<'s>> {
        write!(
            stream,
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status_text(status)
        )?;
        stream.flush()?;
        Ok(ChunkedResponse { stream })
    }

    /// Writes one chunk and flushes, so streaming clients see it
    /// immediately. Empty payloads are skipped (an empty chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, payload: &str) -> io::Result<()> {
        if payload.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n{payload}\r\n", payload.len())?;
        self.stream.flush()
    }

    /// Terminates the chunked stream.
    pub fn finish(self) -> io::Result<()> {
        write!(self.stream, "0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A minimal blocking HTTP/1.1 client request against `addr` — the
/// counterpart of this module's server core, used by `condspec worker
/// --attach` to talk to a coordinating daemon. Returns the status code
/// and body; handles `Content-Length` and chunked responses, and reads
/// to EOF otherwise (the server closes every connection).
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let status_line = read_line_bounded(&mut reader)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let header = read_line_bounded(&mut reader)?;
        if header.is_empty() {
            return Err(bad("truncated response headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }

    let body = if chunked {
        let mut out = Vec::new();
        loop {
            let size_line = read_line_bounded(&mut reader)?;
            if size_line.is_empty() {
                break;
            }
            let size =
                usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                break;
            }
            if size > MAX_BODY - out.len() {
                return Err(too_large());
            }
            // The chunk data plus its trailing CRLF, which is dropped.
            read_exactly(&mut reader, size + 2, &mut out)?;
            out.truncate(out.len() - 2);
        }
        out
    } else if let Some(len) = content_length {
        if len > MAX_BODY {
            return Err(too_large());
        }
        let mut out = Vec::new();
        read_exactly(&mut reader, len, &mut out)?;
        out
    } else {
        let mut out = Vec::new();
        reader.take(MAX_BODY as u64 + 1).read_to_end(&mut out)?;
        if out.len() > MAX_BODY {
            return Err(too_large());
        }
        out
    };
    let body = String::from_utf8(body).map_err(|_| bad("response body is not UTF-8"))?;
    Ok((status, body))
}

/// Shorthand: a GET through [`client_request`].
pub fn client_get(addr: &str, path: &str) -> io::Result<(u16, String)> {
    client_request(addr, "GET", path, "")
}

/// Shorthand: a POST through [`client_request`].
pub fn client_post(addr: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    client_request(addr, "POST", path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread;

    /// Serves `response` to one `client_get` over a local socket and
    /// returns what the client made of it. With `hold_open` the server
    /// keeps the connection open until the client returns, so a client
    /// that waits for a line end that never comes fails by its read
    /// timeout rather than at EOF.
    fn client_sees(response: Vec<u8>, hold_open: bool) -> io::Result<(u16, String)> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (done, wait) = mpsc::channel::<()>();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(&stream);
            let mut line = String::new();
            while reader.read_line(&mut line).expect("request head") > 2 {
                line.clear();
            }
            (&stream).write_all(&response).expect("response");
            if hold_open {
                let _ = wait.recv();
            }
        });
        let result = client_get(&addr, "/");
        drop(done);
        server.join().expect("server thread");
        result
    }

    /// Sends `request` to [`read_request`] over a local socket, holding
    /// the connection open until the parse returns.
    fn server_sees(request: Vec<u8>) -> io::Result<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (done, wait) = mpsc::channel::<()>();
        let client = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&request).expect("request");
            let _ = wait.recv();
        });
        let (mut stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("timeout");
        let result = read_request(&mut stream);
        drop(done);
        client.join().expect("client thread");
        result
    }

    fn assert_invalid<T: std::fmt::Debug>(result: io::Result<T>) {
        match result {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
            Ok(v) => panic!("hostile input accepted: {v:?}"),
        }
    }

    #[test]
    fn client_reads_content_length_and_chunked_bodies() {
        let sized = client_sees(
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello".to_vec(),
            true,
        );
        assert_eq!(sized.expect("sized body"), (200, "hello".to_string()));
        let chunked = client_sees(
            b"HTTP/1.1 202 Accepted\r\nTransfer-Encoding: chunked\r\n\r\n\
              3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n"
                .to_vec(),
            true,
        );
        assert_eq!(chunked.expect("chunked body"), (202, "abcde".to_string()));
    }

    #[test]
    fn client_rejects_a_content_length_beyond_the_body() {
        assert_invalid(client_sees(
            b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nshort".to_vec(),
            false,
        ));
    }

    #[test]
    fn client_rejects_an_overflowing_chunk_size() {
        assert_invalid(client_sees(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nabc"
                .to_vec(),
            true,
        ));
        assert_invalid(client_sees(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nfffffffffffffff0\r\nabc"
                .to_vec(),
            false,
        ));
    }

    #[test]
    fn client_rejects_a_body_over_the_cap() {
        // Chunks that are each in bounds but together exceed MAX_BODY.
        let chunk = "a".repeat(MAX_BODY / 2 + 1);
        let mut response = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        for _ in 0..2 {
            response.extend_from_slice(format!("{:x}\r\n{chunk}\r\n", chunk.len()).as_bytes());
        }
        response.extend_from_slice(b"0\r\n\r\n");
        assert_invalid(client_sees(response, true));
        // No length and no chunking: the body runs to EOF, past the cap.
        let mut response = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
        response.resize(response.len() + MAX_BODY + 1, b'a');
        assert_invalid(client_sees(response, false));
        // Exactly MAX_BODY bytes to EOF is still a body.
        let mut response = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
        response.resize(response.len() + MAX_BODY, b'a');
        let (status, body) = client_sees(response, false).expect("body at the cap");
        assert_eq!((status, body.len()), (200, MAX_BODY));
    }

    #[test]
    fn client_rejects_an_unterminated_header_line() {
        let mut response = b"HTTP/1.1 200 OK\r\nX-Padding: ".to_vec();
        response.resize(response.len() + MAX_HEADER, b'a');
        assert_invalid(client_sees(response, true));
    }

    #[test]
    fn server_rejects_an_unterminated_request_line() {
        let mut request = b"GET /".to_vec();
        request.resize(MAX_HEADER + 1, b'a');
        assert_invalid(server_sees(request));
    }

    #[test]
    fn server_rejects_an_unterminated_header_line() {
        let mut request = b"GET / HTTP/1.1\r\nX-Padding: ".to_vec();
        request.resize(request.len() + MAX_HEADER, b'a');
        assert_invalid(server_sees(request));
    }

    #[test]
    fn percent_decoding_handles_the_common_cases() {
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("a%2fb"), "a/b");
        assert_eq!(percent_decode("dangling%"), "dangling%");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
    }
}
