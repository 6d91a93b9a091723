//! Property tests for the dependency-free JSON writer/parser: any
//! document built from the [`Json`] constructors renders to text that
//! parses back to an equal tree (on the in-repo `gvf-prop` harness).

use gvf_bench::json::Json;
use gvf_prop::{props, Rng};

/// An arbitrary JSON tree of bounded depth. Strings exercise the escape
/// paths (quotes, backslashes, control characters, non-ASCII).
fn arb_json(rng: &mut Rng, depth: usize) -> Json {
    let top = if depth == 0 { 4 } else { 6 };
    match rng.range_usize(0, top) {
        0 => Json::Null,
        1 => Json::Bool(rng.range_u64(0, 2) == 1),
        2 => {
            // Integers in the exactly-representable window plus a few
            // fractional values; render() must round-trip both.
            if rng.range_u64(0, 2) == 0 {
                Json::num_u64(rng.range_u64(0, 1 << 50))
            } else {
                Json::Num(rng.range_u64(0, 1 << 20) as f64 / 64.0)
            }
        }
        3 => Json::str(arb_string(rng)),
        4 => {
            let n = rng.range_usize(0, 5);
            Json::Arr((0..n).map(|_| arb_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.range_usize(0, 5);
            let mut obj = Json::obj();
            for i in 0..n {
                obj.set(
                    format!("k{i}_{}", arb_string(rng)),
                    arb_json(rng, depth - 1),
                );
            }
            obj
        }
    }
}

fn arb_string(rng: &mut Rng) -> String {
    let palette = [
        'a', 'Z', '"', '\\', '\n', '\t', '\u{1}', 'é', '€', '𝄞', ' ', '/',
    ];
    let n = rng.range_usize(0, 12);
    (0..n)
        .map(|_| palette[rng.range_usize(0, palette.len())])
        .collect()
}

#[test]
fn render_parse_round_trip() {
    props!(128, |rng| {
        let doc = arb_json(rng, 3);
        let text = doc.render();
        let back = Json::parse(&text).expect("rendered JSON must parse");
        assert_eq!(back, doc, "round-trip mismatch for: {text}");
        // Idempotence: render(parse(render(x))) == render(x).
        assert_eq!(back.render(), text);
    });
}

#[test]
fn escapes_survive_round_trip() {
    props!(64, |rng| {
        let s = arb_string(rng);
        let doc = Json::str(s.clone());
        let back = Json::parse(&doc.render()).expect("escaped string must parse");
        assert_eq!(back, doc, "string {s:?} did not survive");
    });
}
