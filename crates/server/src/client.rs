//! A small blocking client for the `dbds-server` protocol, used by the
//! `dbds_client` binary, the harness's `--client` mode and the CI
//! scripted session.

use crate::json::Json;
use crate::proto::{parse_response, read_frame, write_frame, Request};
use crate::service::{session_requests, CompileOutcome, CompileRequest};
use dbds_core::OptLevel;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

/// One end of a daemon connection: what [`Client::connect`] returns,
/// and what the daemon's accept loop wraps an accepted socket in.
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
    /// The TCP variant, on either end. Frames are whole messages: never
    /// hold one back for an ACK.
    pub(crate) fn tcp(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true)?;
        Ok(Client::Tcp(stream))
    }

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
            TcpStream::connect(addr)
                .and_then(Client::tcp)
                .map_err(|e| format!("connect {addr}: {e}"))
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

    /// The standard repeated-workload session over the wire: every
    /// built-in workload at every `level`, `passes` times over, printing
    /// one hit/miss/error tally line per pass to stdout as it completes
    /// (no timings — the output is deterministic given the server
    /// state).
    ///
    /// # Errors
    ///
    /// Returns a message on the first protocol violation; typed service
    /// errors are tallied, not returned.
    pub fn session(&mut self, levels: &[OptLevel], passes: usize) -> Result<(), String> {
        let reqs = session_requests(levels);
        for pass in 1..=passes {
            let (mut hits, mut misses, mut errors) = (0u64, 0u64, 0u64);
            for req in &reqs {
                match self.compile(req.clone())? {
                    Ok(served) if served.cached => hits += 1,
                    Ok(_) => misses += 1,
                    Err(_) => errors += 1,
                }
            }
            println!(
                "pass {pass}: {} requests, {hits} hits, {misses} misses, {errors} errors",
                reqs.len()
            );
        }
        Ok(())
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
