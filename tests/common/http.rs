//! A plain HTTP/1.0 client for the status server, shared by the test
//! binaries that scrape it. Include it with
//! `#[path = "common/http.rs"] mod http;`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// `GET path` against the status server at `addr`; returns the body. Fails
/// when nothing listens there yet or the response has no body separator.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("no header/body separator in {response:?}"),
        )),
    }
}
