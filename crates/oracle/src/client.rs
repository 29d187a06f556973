//! A persistent keep-alive HTTP client: the load the `http_loop` bench
//! drives both servers with.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use wla_net::http::{HttpError, Request, Response};
use wla_net::ClientError;

/// Connect/read timeout, as `wla_net::fetch` uses.
const TIMEOUT: Duration = Duration::from_secs(5);

/// A persistent keep-alive client connection.
///
/// Where `wla_net::fetch` opens a fresh connection per request
/// (`connection: close` framing), this holds one socket open and frames
/// every request keep-alive — the client side of the nonblocking server's
/// hot path. Pipelining is explicit via [`ClientConn::send_pipelined`]:
/// all requests are written back-to-back before any response is read.
#[derive(Debug)]
pub struct ClientConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ClientConn {
    /// Open a persistent connection.
    pub fn connect(addr: SocketAddr) -> Result<ClientConn, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)
            .map_err(|e| ClientError::Connect(e.to_string()))?;
        stream
            .set_read_timeout(Some(TIMEOUT))
            .map_err(|e| ClientError::Connect(e.to_string()))?;
        stream.set_nodelay(true).ok();
        let writer = stream
            .try_clone()
            .map_err(|e| ClientError::Connect(e.to_string()))?;
        Ok(ClientConn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// One keep-alive request/response exchange.
    pub fn send(&mut self, request: &Request) -> Result<Response, ClientError> {
        request.write_into(&mut self.writer, false)?;
        Ok(Response::read_from(&mut self.reader)?)
    }

    /// Write every request back-to-back (pipelined), then read the
    /// responses in order.
    pub fn send_pipelined(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        let mut raw = Vec::new();
        for request in requests {
            request.write_into(&mut raw, false)?;
        }
        self.writer
            .write_all(&raw)
            .map_err(|e| ClientError::Http(HttpError::Io(e.to_string())))?;
        requests
            .iter()
            .map(|_| Response::read_from(&mut self.reader).map_err(ClientError::from))
            .collect()
    }
}
