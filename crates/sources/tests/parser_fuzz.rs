//! Robustness: no parser may panic on arbitrary input — real dumps arrive
//! truncated, mis-encoded, or simply wrong, and the pipeline must fail
//! with a located error, never abort.

use sources::dialects;
use testkit::{cases, text, Prng};

/// All parsers under test.
type Parser = fn(&str) -> Result<eav::EavBatch, sources::ParseError>;

fn parsers() -> Vec<(&'static str, Parser)> {
    vec![
        ("locuslink", dialects::locuslink::parse),
        ("go", dialects::go::parse),
        ("unigene", dialects::unigene::parse),
        ("enzyme", dialects::enzyme::parse),
        ("hugo", dialects::hugo::parse),
        ("omim", dialects::omim::parse),
        ("netaffx", dialects::netaffx::parse),
        ("swissprot", dialects::swissprot::parse),
        ("interpro", dialects::interpro::parse),
        ("genemap", dialects::genemap::parse),
        ("satellite", dialects::satellite::parse),
    ]
}

const UPPER: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const DIGITS: &[u8] = b"0123456789";
const ALNUM: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";

fn assert_no_parser_panics(input: &str) {
    for (name, parse) in parsers() {
        let result = std::panic::catch_unwind(|| parse(input));
        assert!(result.is_ok(), "{name} panicked on {input:?}");
    }
}

/// Any printable character: mostly ASCII (where the dialects' tags and
/// separators live), now and then any other non-control scalar value.
fn printable(rng: &mut Prng) -> char {
    if rng.below(5) > 0 {
        return rng.gen_range(0x20u8..0x7f) as char;
    }
    loop {
        match char::from_u32(rng.gen_range(0xa0u32..0x11_0000)) {
            Some(c) if !c.is_control() => return c,
            _ => {}
        }
    }
}

/// Arbitrary garbage: every parser returns Ok or a ParseError.
#[test]
fn parsers_never_panic_on_garbage() {
    // once found a panic: a multibyte character right behind a two-byte tag
    assert_no_parser_panics("0A𑎷");
    cases(128, |rng| {
        let input: String = (0..rng.below(80)).map(|_| printable(rng)).collect();
        assert_no_parser_panics(&input);
    });
}

/// One line of noise shaped like some dialect's records: tags, separators,
/// numbers.
fn noise_line(rng: &mut Prng) -> String {
    let alnum_and = |extra: &[u8]| [ALNUM, extra].concat();
    match rng.below(11) {
        0 => {
            let rest = [LOWER, DIGITS, b" .;~|=,-"].concat();
            format!("{}   {}", text(rng, UPPER, 2..=2), text(rng, &rest, 0..=30))
        }
        1 => format!(">>{}", text(rng, DIGITS, 0..=8)),
        2 => format!(
            "#{}\t{}",
            text(rng, LOWER, 1..=8),
            text(rng, &alnum_and(b" "), 0..=10)
        ),
        3 => "[Term]".to_owned(),
        4 => format!(
            "{}: {}",
            text(rng, &[LOWER, b"_"].concat(), 1..=8),
            text(rng, &alnum_and(b":. !"), 0..=20)
        ),
        5 => format!(
            "{}|{}|{}",
            text(rng, &alnum_and(b"."), 0..=12),
            text(rng, &[LOWER, b" "].concat(), 0..=12),
            text(rng, &[DIGITS, b","].concat(), 0..=8)
        ),
        6 => format!(
            "{},{},{}",
            text(rng, ALNUM, 0..=8),
            text(rng, &[LOWER, b" "].concat(), 0..=10),
            text(rng, &alnum_and(b";~.=|"), 0..=20)
        ),
        7 => format!(
            "{}\t{}\t{}\t{}",
            text(rng, ALNUM, 0..=6),
            text(rng, DIGITS, 0..=6),
            text(rng, DIGITS, 0..=6),
            text(rng, DIGITS, 0..=6)
        ),
        8 => "//".to_owned(),
        9 => "*RECORD*".to_owned(),
        _ => "*FIELD* NO".to_owned(),
    }
}

/// Line-structured garbage that resembles the dialects more closely, to
/// reach deeper parse paths.
#[test]
fn parsers_never_panic_on_structured_noise() {
    cases(128, |rng| {
        let lines: Vec<String> = (0..rng.below(30)).map(|_| noise_line(rng)).collect();
        assert_no_parser_panics(&lines.join("\n"));
    });
}

/// Truncating a valid dump at any byte never panics any parser.
#[test]
fn truncated_valid_dumps_never_panic() {
    cases(128, |rng| {
        let cut = rng.below(2_000);
        let seed = rng.gen_range(1..20u64);
        let eco = sources::ecosystem::Ecosystem::generate(
            sources::ecosystem::EcosystemParams::demo(seed),
        );
        for dump in &eco.dumps {
            let cut = cut.min(dump.text.len());
            // cut on a char boundary
            let mut boundary = cut;
            while !dump.text.is_char_boundary(boundary) {
                boundary -= 1;
            }
            let truncated = &dump.text[..boundary];
            let clipped = sources::ecosystem::SourceDump {
                name: dump.name.clone(),
                dialect: dump.dialect,
                text: truncated.to_owned(),
            };
            let result = std::panic::catch_unwind(|| clipped.parse());
            assert!(result.is_ok(), "{} panicked at cut {boundary}", dump.name);
        }
    });
}
