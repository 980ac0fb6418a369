//! Property tests: encode ∘ parse is the identity for the message types, and
//! the parser never panics on arbitrary bytes.

use iluvatar_http::{
    parse_request, parse_response, Method, ParseError, ParseOutcome, Request, Response, Status,
    MAX_BODY,
};
use proptest::prelude::*;

fn arb_method() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Get),
        Just(Method::Post),
        Just(Method::Put),
        Just(Method::Delete),
        Just(Method::Head),
    ]
}

fn arb_path() -> impl Strategy<Value = String> {
    "/[a-zA-Z0-9_/]{0,30}"
}

fn arb_headers() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(("[a-zA-Z][a-zA-Z-]{0,15}", "[ -~&&[^:]]{0,30}"), 0..6).prop_map(
        |hs| {
            // Header lookup returns the first case-insensitive match, so the
            // roundtrip property only holds for distinct keys.
            let mut seen = std::collections::HashSet::new();
            hs.into_iter()
                .filter(|(k, _)| !k.eq_ignore_ascii_case("content-length"))
                .filter(|(k, _)| seen.insert(k.to_ascii_lowercase()))
                .map(|(k, v)| (k, v.trim().to_string()))
                .collect()
        },
    )
}

proptest! {
    #[test]
    fn request_encode_parse_roundtrip(
        method in arb_method(),
        path in arb_path(),
        headers in arb_headers(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut req = Request::new(method, path.clone()).with_body(body.clone());
        for (k, v) in headers.clone() {
            req = req.with_header(k, v);
        }
        let wire = req.encode();
        match parse_request(&wire).unwrap() {
            ParseOutcome::Complete(parsed, used) => {
                prop_assert_eq!(used, wire.len());
                prop_assert_eq!(parsed.method, method);
                prop_assert_eq!(&parsed.path, &path);
                prop_assert_eq!(&parsed.body[..], &body[..]);
                for (k, v) in &headers {
                    prop_assert_eq!(parsed.header(k), Some(v.as_str()));
                }
            }
            ParseOutcome::Incomplete => prop_assert!(false, "complete wire parsed as incomplete"),
        }
    }

    #[test]
    fn response_encode_parse_roundtrip(
        code in 100u16..600,
        headers in arb_headers(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut resp = Response::new(Status(code)).with_body(body.clone());
        for (k, v) in headers.clone() {
            resp = resp.with_header(k, v);
        }
        let wire = resp.encode();
        match parse_response(&wire).unwrap() {
            ParseOutcome::Complete(parsed, used) => {
                prop_assert_eq!(used, wire.len());
                prop_assert_eq!(parsed.status.0, code);
                prop_assert_eq!(&parsed.body[..], &body[..]);
                let got: Vec<(&str, &str)> = parsed
                    .headers
                    .iter()
                    .filter(|(k, _)| !k.eq_ignore_ascii_case("content-length"))
                    .collect();
                let want: Vec<(&str, &str)> =
                    headers.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                prop_assert_eq!(got, want);
            }
            ParseOutcome::Incomplete => prop_assert!(false, "complete wire parsed as incomplete"),
        }
    }

    /// The parser must never panic, whatever bytes arrive.
    #[test]
    fn parser_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = parse_request(&bytes);
        let _ = parse_response(&bytes);
    }

    /// Every strict prefix of a valid message is Incomplete or an error —
    /// never a (shorter) Complete with trailing garbage beyond `used`.
    #[test]
    fn prefix_never_over_consumes(
        body in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 0usize..100,
    ) {
        let req = Request::new(Method::Post, "/invoke").with_body(body);
        let wire = req.encode();
        let cut = cut.min(wire.len().saturating_sub(1));
        match parse_request(&wire[..cut]) {
            Ok(ParseOutcome::Complete(_, used)) => prop_assert!(used <= cut),
            Ok(ParseOutcome::Incomplete) | Err(_) => {}
        }
    }

    /// A declared body over the cap is refused at once, whatever the
    /// digits: never an overflow, never a wait for input that would grow
    /// the buffer. Lengths past `usize` do not even parse.
    #[test]
    fn oversized_content_length_is_refused(
        over in 1u64..u64::MAX,
        sent in proptest::collection::vec(any::<u8>(), 0..64),
        response in any::<bool>(),
    ) {
        let len = MAX_BODY as u128 + over as u128;
        let head = if response { "HTTP/1.1 200 OK" } else { "POST /invoke HTTP/1.1" };
        let mut wire = format!("{head}\r\nContent-Length: {len}\r\n\r\n").into_bytes();
        wire.extend_from_slice(&sent);
        let err = if response {
            parse_response(&wire).err()
        } else {
            parse_request(&wire).err()
        };
        if len <= usize::MAX as u128 {
            prop_assert_eq!(err, Some(ParseError::TooLarge));
        } else {
            prop_assert!(matches!(err, Some(ParseError::BadContentLength(_))));
        }
    }
}
