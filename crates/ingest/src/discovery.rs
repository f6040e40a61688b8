//! UDP discovery for the ingest collector.
//!
//! TVs on a lab network find the collector without configuration: they
//! broadcast a one-line magic request and the collector answers with
//! the TCP port its acceptor is bound to. The exchange is plain ASCII
//! so a tcpdump of the lab segment stays human-readable.
//!
//! ```text
//! TV        -> broadcast  "HBBTV-INGEST v1?"
//! collector -> unicast    "HBBTV-INGEST v1 <tcp-port>"
//! ```
//!
//! Anything that is not the exact magic request is ignored — the
//! responder never answers noise, so it cannot be used as an
//! amplification reflector on a shared segment.
//!
//! Each datagram costs O(64) whatever its size: the responder reads
//! into a 64-byte buffer (the kernel truncates a longer datagram and
//! drops the rest) and compares what it read with the 16-byte magic. A
//! 64 KiB datagram, or the magic followed by junk, is therefore as cheap
//! to reject as a short one.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The discovery request a TV broadcasts.
pub const DISCOVERY_REQUEST: &[u8] = b"HBBTV-INGEST v1?";
/// Prefix of the collector's answer; the TCP port follows in ASCII.
pub const DISCOVERY_ANSWER_PREFIX: &str = "HBBTV-INGEST v1 ";

/// A running UDP responder advertising one collector's TCP port.
pub struct DiscoveryResponder {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl DiscoveryResponder {
    /// Binds a responder on `bind` (use port 0 for an ephemeral port)
    /// that advertises `tcp_port`.
    pub fn start(bind: SocketAddr, tcp_port: u16) -> std::io::Result<DiscoveryResponder> {
        let socket = UdpSocket::bind(bind)?;
        socket.set_read_timeout(Some(Duration::from_millis(100)))?;
        let addr = socket.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ingest-discovery".into())
            .spawn(move || {
                let answer = format!("{DISCOVERY_ANSWER_PREFIX}{tcp_port}");
                let mut buf = [0u8; 64];
                while !stop2.load(Ordering::Relaxed) {
                    match socket.recv_from(&mut buf) {
                        Ok((n, from)) if &buf[..n] == DISCOVERY_REQUEST => {
                            let _ = socket.send_to(answer.as_bytes(), from);
                        }
                        Ok(_) => {} // noise: never answered
                        Err(e)
                            if e.kind() == ErrorKind::WouldBlock
                                || e.kind() == ErrorKind::TimedOut => {}
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn discovery thread");
        Ok(DiscoveryResponder {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The UDP address the responder listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the responder thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for DiscoveryResponder {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Asks `responder` (a discovery responder's UDP address) for the
/// collector's TCP port, retrying until `timeout`.
pub fn discover(responder: SocketAddr, timeout: Duration) -> std::io::Result<u16> {
    let socket = UdpSocket::bind((responder.ip(), 0))?;
    socket.set_read_timeout(Some(Duration::from_millis(100)))?;
    let deadline = Instant::now() + timeout;
    let mut buf = [0u8; 64];
    loop {
        socket.send_to(DISCOVERY_REQUEST, responder)?;
        match socket.recv_from(&mut buf) {
            Ok((n, from)) if from == responder => {
                let text = std::str::from_utf8(&buf[..n]).map_err(|_| {
                    std::io::Error::new(ErrorKind::InvalidData, "non-utf8 discovery answer")
                })?;
                if let Some(port) = text.strip_prefix(DISCOVERY_ANSWER_PREFIX) {
                    return port.parse::<u16>().map_err(|_| {
                        std::io::Error::new(ErrorKind::InvalidData, "bad port in discovery answer")
                    });
                }
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    "malformed discovery answer",
                ));
            }
            Ok(_) => {} // answer from someone else: keep waiting
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
        if Instant::now() > deadline {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "no collector answered discovery",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_discovers_the_advertised_port() {
        let responder = DiscoveryResponder::start("127.0.0.1:0".parse().unwrap(), 4711).unwrap();
        let port = discover(responder.addr(), Duration::from_secs(5)).unwrap();
        assert_eq!(port, 4711);
    }

    #[test]
    fn noise_is_ignored_but_service_continues() {
        let responder = DiscoveryResponder::start("127.0.0.1:0".parse().unwrap(), 4712).unwrap();
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.send_to(b"GET / HTTP/1.1", responder.addr()).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut buf = [0u8; 64];
        assert!(socket.recv_from(&mut buf).is_err(), "noise gets no answer");
        let port = discover(responder.addr(), Duration::from_secs(5)).unwrap();
        assert_eq!(port, 4712, "responder still serves real requests");
    }

    /// The worst case the module doc states: a burst of the largest
    /// datagrams, and of the magic with junk after it, gets no answer,
    /// and a real request after the burst is answered within 2 s.
    #[test]
    fn noise_burst_is_never_answered_and_a_request_after_it_is() {
        let responder = DiscoveryResponder::start("127.0.0.1:0".parse().unwrap(), 4713).unwrap();
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        // 65,507 bytes is the largest IPv4 UDP payload, just under 64 KiB.
        let largest = vec![b'x'; 65_507];
        let mut magic_then_junk = DISCOVERY_REQUEST.to_vec();
        magic_then_junk.resize(65_507, b'!');
        let noise: [&[u8]; 5] = [
            &largest,
            &magic_then_junk,
            &magic_then_junk[..DISCOVERY_REQUEST.len() + 1],
            &DISCOVERY_REQUEST[..DISCOVERY_REQUEST.len() - 1],
            b"",
        ];
        for _ in 0..50 {
            for datagram in noise {
                socket.send_to(datagram, responder.addr()).unwrap();
            }
        }

        // Ask until answered (the kernel may drop a request while the
        // burst fills the responder's buffer), then read until 100 ms
        // pass quietly, so a late answer to noise would still be seen.
        socket
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        let (mut requests, mut answers) = (0, 0);
        let mut buf = [0u8; 64];
        loop {
            if answers == 0 {
                assert!(
                    Instant::now() < deadline,
                    "no answer within 2 s of the burst"
                );
                socket.send_to(DISCOVERY_REQUEST, responder.addr()).unwrap();
                requests += 1;
            }
            match socket.recv_from(&mut buf) {
                Ok((n, _)) => {
                    assert_eq!(&buf[..n], b"HBBTV-INGEST v1 4713");
                    answers += 1;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if answers > 0 {
                        break;
                    }
                }
                Err(e) => panic!("discovery socket failed: {e}"),
            }
        }
        assert!(
            answers <= requests,
            "{answers} answers to {requests} requests"
        );
    }
}
