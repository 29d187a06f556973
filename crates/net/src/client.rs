//! Blocking `Connection: close` HTTP client.

use crate::http::{HttpError, Request, Response};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Could not connect.
    Connect(String),
    /// Protocol-level failure.
    Http(HttpError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Http(e) => write!(f, "http error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        ClientError::Http(e)
    }
}

/// Connect/read timeout for loopback measurement traffic.
const TIMEOUT: Duration = Duration::from_secs(5);

/// Send one request over a fresh connection and read the response.
///
/// One connection per request keeps the client trivially correct; the
/// measurement workload is tiny and latency-insensitive, and it mirrors the
/// `Connection: close` framing the codec emits.
pub fn fetch(addr: SocketAddr, request: Request) -> Result<Response, ClientError> {
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT)
        .map_err(|e| ClientError::Connect(e.to_string()))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| ClientError::Connect(e.to_string()))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream
        .try_clone()
        .map_err(|e| ClientError::Connect(e.to_string()))?;
    request.write_to(&mut writer)?;
    let mut reader = BufReader::new(stream);
    Ok(Response::read_from(&mut reader)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_refused_is_error() {
        // Bind then drop to get a port that refuses connections.
        let addr = {
            let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            listener.local_addr().unwrap()
        };
        let err = fetch(addr, Request::get("/")).unwrap_err();
        assert!(matches!(
            err,
            ClientError::Connect(_) | ClientError::Http(_)
        ));
    }
}
