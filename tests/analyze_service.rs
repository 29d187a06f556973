//! `POST /analyze` error taxonomy over real HTTP, pinned on both servers.
//!
//! The contract (DESIGN 6.8): a container that decodes but is broken is a
//! `422` whose JSON body carries the stable `ApkError::kind` label; a body
//! past the configured cap never reaches the handler (`413` from the
//! codec); a wrong method never reaches it either (`405` from the router,
//! with an `allow` header). Every case is exercised against the
//! readiness-loop server *and* the blocking oracle, and the status, body,
//! and headers must agree.
//!
//! The server comparisons run one build on both sides, so they cannot see
//! a change in the JSON itself; [`ANALYZE_DIGEST`] pins the response bytes.

use std::sync::Arc;
use wla_core::{analysis_routes, Study};
use wla_net::http::{form_encode, header};
use wla_net::{fetch, Handler, Limits, Request, Response, Server, ServerConfig, Status};
use wla_oracle::server as oracle;
use wla_sdk_index::SdkIndex;

fn analyze_handler() -> Handler {
    let catalog = Arc::new(SdkIndex::paper());
    analysis_routes(wla_net::Router::new(), catalog).into_handler()
}

/// Run `request` against both servers and assert the responses agree on
/// status, headers, and body; returns the (shared) response.
fn on_both(request: Request) -> Response {
    let mut oracle_server = oracle::Server::start(analyze_handler()).unwrap();
    let nb_server = Server::start(analyze_handler()).unwrap();
    let from_oracle = fetch(oracle_server.addr(), request.clone()).unwrap();
    let from_nb = fetch(nb_server.addr(), request).unwrap();
    assert_eq!(from_oracle.status, from_nb.status);
    assert_eq!(from_oracle.body, from_nb.body);
    assert_eq!(from_oracle.headers, from_nb.headers);
    oracle_server.shutdown();
    from_nb
}

/// FNV-1a-64 over every `(status, body)` that `/analyze` returns, in
/// corpus order, for the 1:2000 default-seed corpus dispatched in-process
/// with each app's Play metadata in the query string, followed by one
/// truncated container's 422.
const ANALYZE_DIGEST: u64 = 0xf19b_5043_0bc0_4f16;

#[test]
fn analyze_responses_match_their_pinned_digest() {
    let study = Study::new(2_000, 0xDA7A_5EED);
    let router = analysis_routes(wla_net::Router::new(), Arc::new(SdkIndex::paper()));
    let corpus = study.corpus();
    let mut requests: Vec<Request> = corpus
        .iter()
        .map(|g| {
            let meta = &g.spec.meta;
            let target = format!(
                "/analyze?package={}&category={}&downloads={}",
                form_encode(&meta.package),
                form_encode(meta.category.label()),
                meta.downloads
            );
            Request::post(target, g.bytes.clone())
        })
        .collect();
    let truncated = corpus[0].bytes[..corpus[0].bytes.len() / 2].to_vec();
    requests.push(Request::post("/analyze", truncated));
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut ok = 0;
    let mut last = Status::Ok;
    for req in &requests {
        let resp = router.dispatch(req);
        fold(&resp.status.code().to_le_bytes());
        fold(&resp.body);
        ok += usize::from(resp.status == Status::Ok);
        last = resp.status;
    }
    assert_eq!(last, Status::UnprocessableEntity);
    assert!(ok > requests.len() / 2);
    assert_eq!(digest, ANALYZE_DIGEST, "digest {digest:016x}");
}

/// `downloads` is echoed as the integer it was parsed as, past 2^53
/// too, where an `f64` would round it.
#[test]
fn downloads_are_echoed_exactly() {
    let router = analysis_routes(wla_net::Router::new(), Arc::new(SdkIndex::paper()));
    let corpus = Study::new(2_000, 0xDA7A_5EED).corpus();
    let app = corpus.iter().find(|g| !g.corrupted).expect("an intact app");
    for downloads in [0, 100_000, 9_007_199_254_740_993, u64::MAX] {
        let target = format!("/analyze?downloads={downloads}");
        let resp = router.dispatch(&Request::post(target, app.bytes.clone()));
        assert_eq!(resp.status, Status::Ok);
        let body = String::from_utf8(resp.body.to_vec()).unwrap();
        let field = format!("\"downloads\":{downloads},");
        assert!(body.contains(&field), "{field} not in {body}");
    }
}

/// The package is the container manifest's: a `package` query parameter,
/// whatever it says, leaves the response byte-identical.
#[test]
fn a_package_parameter_changes_nothing() {
    let router = analysis_routes(wla_net::Router::new(), Arc::new(SdkIndex::paper()));
    let corpus = Study::new(2_000, 0xDA7A_5EED).corpus();
    let app = corpus.iter().find(|g| !g.corrupted).expect("an intact app");
    let answer = |target: &str| router.dispatch(&Request::post(target, app.bytes.clone()));
    let plain = answer("/analyze?category=Tools");
    assert_eq!(plain.status, Status::Ok);
    for target in [
        "/analyze?package=a&category=Tools",
        "/analyze?category=Tools&package=b",
    ] {
        let resp = answer(target);
        assert_eq!(
            (resp.status, &resp.headers, &resp.body),
            (plain.status, &plain.headers, &plain.body),
            "{target}"
        );
    }
}

#[test]
fn corrupted_sdex_is_422_with_error_kind() {
    let resp = on_both(Request::post("/analyze", &b"XXXX not a container"[..]));
    assert_eq!(resp.status, Status::UnprocessableEntity);
    assert_eq!(
        header(&resp.headers, "content-type"),
        Some("application/json")
    );
    let body = String::from_utf8(resp.body.to_vec()).unwrap();
    assert!(body.contains("\"error\":{\"kind\":\"bad-magic\""), "{body}");
    assert!(body.contains("\"detail\":"), "{body}");
}

#[test]
fn truncated_sdex_reports_its_own_kind() {
    // A valid magic with nothing behind it exercises a different arm of
    // the taxonomy than bad-magic; the kind label must still be stable.
    let resp = on_both(Request::post("/analyze", &b"SAPK"[..]));
    assert_eq!(resp.status, Status::UnprocessableEntity);
    let body = String::from_utf8(resp.body.to_vec()).unwrap();
    assert!(body.contains("\"kind\":\"truncated\""), "{body}");
}

#[test]
fn oversized_body_is_413_from_the_codec() {
    let limits = Limits {
        max_body_bytes: 1024,
        ..Limits::default()
    };
    let mut oracle_server = oracle::Server::start_with(analyze_handler(), limits, false).unwrap();
    let nb_server = Server::start_with(
        analyze_handler(),
        ServerConfig {
            limits,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let request = Request::post("/analyze", vec![0u8; 4096]);
    let from_oracle = fetch(oracle_server.addr(), request.clone()).unwrap();
    let from_nb = fetch(nb_server.addr(), request).unwrap();
    assert_eq!(from_oracle.status, Status::PayloadTooLarge);
    assert_eq!(from_nb.status, Status::PayloadTooLarge);
    assert_eq!(from_oracle.body, from_nb.body);
    assert_eq!(from_oracle.headers, from_nb.headers);
    oracle_server.shutdown();
}

#[test]
fn wrong_method_is_405_with_allow_header() {
    let resp = on_both(Request::get("/analyze"));
    assert_eq!(resp.status, Status::MethodNotAllowed);
    assert_eq!(header(&resp.headers, "allow"), Some("POST"));
}
