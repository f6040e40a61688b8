//! The network boundary of the TV.

use hbbtv_net::{Request, Response};

/// Where the TV's HTTP(S) requests go.
///
/// In the physical setup this is the Wi-Fi hotspot + mitmproxy + the
/// Internet; in the simulation the study harness implements it by
/// answering from the tracker registry and recording through a
/// per-visit proxy handle (`hbbtv_proxy::VisitHandle`), so every
/// exchange is tagged with the channel visit that issued it.
///
/// Implementations receive every request the TV issues — including
/// redirect-chain follow-ups — in the order the TV sends them. A
/// backend is owned by one `Tv`, and in the channel-parallel harness
/// one `Tv` (hence one backend) exists per visit, on the visit's worker
/// thread: a backend never needs to be `Sync`, but the harness's is
/// `Send` so visits can fan out over a worker pool.
///
/// The exchange stays the backend's: the TV reads what it needs (the
/// `Set-Cookie` headers, a redirect target, the request's eTLD+1) in
/// `on_response`, so a backend that keeps the request and response — a
/// capturing proxy — moves them into its log without copying either.
pub trait NetworkBackend {
    /// Delivers a request, and calls `on_response` once with the request
    /// and its response.
    fn fetch(&mut self, request: Request, on_response: impl FnOnce(&Request, &Response));
}

/// A closure from request to response is a backend that keeps nothing.
impl<F> NetworkBackend for F
where
    F: FnMut(&Request) -> Response,
{
    fn fetch(&mut self, request: Request, on_response: impl FnOnce(&Request, &Response)) {
        let response = self(&request);
        on_response(&request, &response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbtv_net::{Status, Url};

    #[test]
    fn closures_are_backends() {
        let mut calls = 0usize;
        {
            let mut backend = |_req: &Request| {
                calls += 1;
                Response::builder(Status::OK).build()
            };
            let url: Url = "http://x.de/".parse().unwrap();
            let mut seen = None;
            backend.fetch(Request::get(url).build(), |req, resp| {
                seen = Some((req.url.host().to_string(), resp.status));
            });
            assert_eq!(seen, Some(("x.de".to_string(), Status::OK)));
        }
        assert_eq!(calls, 1);
    }
}
