//! A small blocking client for the `dbds-server` protocol, used by the
//! `dbds_client` binary, the harness's `--client` mode and the CI
//! scripted session.

use crate::json::Json;
use crate::proto::{parse_response, read_frame, write_frame, Request};
use crate::service::{CompileOutcome, CompileRequest};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

/// One connection to a running daemon.
#[derive(Debug)]
pub enum Client {
    /// TCP transport.
    Tcp(TcpStream),
    /// Unix-domain-socket transport.
    Unix(UnixStream),
}

impl Read for Client {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Client::Tcp(s) => s.read(buf),
            Client::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Client {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Client::Tcp(s) => s.write(buf),
            Client::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Client::Tcp(s) => s.flush(),
            Client::Unix(s) => s.flush(),
        }
    }
}

impl Client {
    /// Connects to `addr`: `host:port` for TCP or `unix:<path>` for a
    /// Unix domain socket (the same syntax `dbds-server --listen`
    /// takes).
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when the connection fails.
    pub fn connect(addr: &str) -> Result<Client, String> {
        if let Some(path) = addr.strip_prefix("unix:") {
            UnixStream::connect(path)
                .map(Client::Unix)
                .map_err(|e| format!("connect {addr}: {e}"))
        } else {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            // Frames are whole requests: never hold one back for an ACK.
            stream
                .set_nodelay(true)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            Ok(Client::Tcp(stream))
        }
    }

    /// Sends one request frame and reads one response frame.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure or when the server closes the
    /// connection without answering.
    pub fn request(&mut self, req: &Request) -> Result<Json, String> {
        write_frame(self, &req.to_json()).map_err(|e| format!("send: {e}"))?;
        read_frame(self)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "server closed the connection".to_string())
    }

    /// Issues a compile request and decodes the typed outcome.
    ///
    /// # Errors
    ///
    /// Returns a message only for protocol violations; typed service
    /// errors come back as `Ok(Err(…))`.
    pub fn compile(&mut self, req: CompileRequest) -> Result<CompileOutcome, String> {
        let json = self.request(&Request::Compile(req))?;
        parse_response(&json)
    }

    /// Fetches the status report.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn status(&mut self) -> Result<Json, String> {
        self.request(&Request::Status)
    }

    /// Asks the daemon to shut down.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn shutdown(&mut self) -> Result<Json, String> {
        self.request(&Request::Shutdown)
    }
}
