//! Text serialization of repro scenarios.
//!
//! A repro is one scenario plus an expectation, stored as a small
//! line-oriented text file (committed under `tests/corpus/*.repro`) that
//! replays byte-for-byte: the format contains every input the simulator
//! consumes, so parsing and re-running a file reproduces the original run
//! exactly.
//!
//! ```text
//! rstp-check repro v1
//! protocol = gamma k=4
//! params = 1 2 6
//! expect = pass
//! reason = reverse-burst delivery at the deadline
//! input = 0110
//! t_gaps = 2 2 1
//! r_gaps =
//! gap_fallback = 2
//! data_fates = 6 0 drop dup:1,3
//! ack_fates = 0
//! data_fallback = 0
//! ack_fallback = 6
//! ```
//!
//! Fate tokens: a bare integer delivers after that many ticks, `drop`
//! loses the packet, `dup:a,b` delivers two copies after `a` and `b`.
//!
//! Scenarios for the self-stabilizing protocols may carry one extra,
//! optional line scripting the seeded mid-run state corruption:
//!
//! ```text
//! corruption = at=37 seed=12345
//! ```
//!
//! Files without it (everything predating the stabilizing family) parse
//! unchanged.

use std::fmt;

use rstp_core::TimingParams;
use rstp_sim::{CorruptionSpec, PacketFate, ScriptedDelivery};

use crate::scenario::Scenario;

/// What replaying the scenario is expected to produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// Every oracle passes.
    Pass,
    /// At least one oracle rejects the run.
    Violation,
}

/// A committed reproducer: scenario, expectation, and provenance note.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Repro {
    /// The scenario to replay.
    pub scenario: Scenario,
    /// Expected verdict.
    pub expect: Expectation,
    /// Free-text provenance (what the scenario stresses, or which failure
    /// it reproduced).
    pub reason: String,
}

/// A parse failure, with the 1-based line it occurred on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReproError {
    /// 1-based line number (0 for whole-file problems).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ReproError {}

const HEADER: &str = "rstp-check repro v1";

fn fate_token(fate: PacketFate) -> String {
    match fate {
        PacketFate::Deliver(t) => t.to_string(),
        PacketFate::Drop => "drop".into(),
        PacketFate::Duplicate(a, b) => format!("dup:{a},{b}"),
    }
}

/// Renders a repro to its canonical text form.
#[must_use]
pub fn render_repro(repro: &Repro) -> String {
    let s = &repro.scenario;
    // List-valued lines render as `key =` when empty — no trailing space —
    // so files are a fixpoint of parse ∘ render.
    let join = |items: Vec<String>| {
        if items.is_empty() {
            String::new()
        } else {
            format!(" {}", items.join(" "))
        }
    };
    let ticks = |v: &[u64]| join(v.iter().map(u64::to_string).collect());
    let fates = |p: &ScriptedDelivery| join(p.fates().iter().map(|&f| fate_token(f)).collect());
    let input: String = s.input.iter().map(|&b| if b { '1' } else { '0' }).collect();
    // The corruption line is optional (absent = no fault), so pre-Issue-7
    // corpus files parse unchanged.
    let corruption = s.corruption.map_or(String::new(), |c| {
        format!("corruption = at={} seed={}\n", c.at_event, c.seed)
    });
    format!(
        "{HEADER}\n\
         protocol = {}\n\
         params = {} {} {}\n\
         expect = {}\n\
         reason = {}\n\
         input = {input}\n\
         t_gaps ={}\n\
         r_gaps ={}\n\
         gap_fallback = {}\n\
         data_fates ={}\n\
         ack_fates ={}\n\
         data_fallback = {}\n\
         ack_fallback = {}\n\
         {corruption}",
        s.kind.corpus_token(),
        s.params.c1().ticks(),
        s.params.c2().ticks(),
        s.params.d().ticks(),
        match repro.expect {
            Expectation::Pass => "pass",
            Expectation::Violation => "violation",
        },
        repro.reason,
        ticks(&s.t_gaps),
        ticks(&s.r_gaps),
        s.gap_fallback,
        fates(&s.data),
        fates(&s.ack),
        s.data.fallback(),
        s.ack.fallback(),
    )
}

struct Fields<'a> {
    entries: Vec<(usize, &'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn get(&self, key: &str) -> Result<(usize, &'a str), ReproError> {
        self.get_opt(key).ok_or_else(|| ReproError {
            line: 0,
            message: format!("missing field `{key}`"),
        })
    }

    /// Optional fields (like `corruption`) are simply absent in older files.
    fn get_opt(&self, key: &str) -> Option<(usize, &'a str)> {
        self.entries
            .iter()
            .find(|(_, k, _)| *k == key)
            .map(|&(line, _, v)| (line, v))
    }
}

fn parse_u64(line: usize, what: &str, token: &str) -> Result<u64, ReproError> {
    token.parse().map_err(|_| ReproError {
        line,
        message: format!("{what}: expected an integer, got `{token}`"),
    })
}

fn parse_fates(line: usize, value: &str) -> Result<Vec<PacketFate>, ReproError> {
    value
        .split_whitespace()
        .map(|token| {
            if token == "drop" {
                return Ok(PacketFate::Drop);
            }
            if let Some(rest) = token.strip_prefix("dup:") {
                let (a, b) = rest.split_once(',').ok_or_else(|| ReproError {
                    line,
                    message: format!("duplicate fate `{token}` is not dup:a,b"),
                })?;
                return Ok(PacketFate::Duplicate(
                    parse_u64(line, "dup delay", a)?,
                    parse_u64(line, "dup delay", b)?,
                ));
            }
            Ok(PacketFate::Deliver(parse_u64(
                line,
                "delivery delay",
                token,
            )?))
        })
        .collect()
}

/// Parses the canonical text form back into a [`Repro`].
pub fn parse_repro(text: &str) -> Result<Repro, ReproError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(ReproError {
        line: 0,
        message: "empty file".into(),
    })?;
    if header.trim() != HEADER {
        return Err(ReproError {
            line: 1,
            message: format!("bad header `{header}` (expected `{HEADER}`)"),
        });
    }

    let mut entries = Vec::new();
    for (idx, raw) in lines {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (key, value) = trimmed.split_once('=').ok_or_else(|| ReproError {
            line,
            message: format!("`{trimmed}` is not key = value"),
        })?;
        entries.push((line, key.trim(), value.trim()));
    }
    let fields = Fields { entries };

    let (line, value) = fields.get("protocol")?;
    let kind = value
        .parse()
        .map_err(|message| ReproError { line, message })?;

    let (line, value) = fields.get("params")?;
    let nums: Vec<&str> = value.split_whitespace().collect();
    if nums.len() != 3 {
        return Err(ReproError {
            line,
            message: format!("params needs `c1 c2 d`, got `{value}`"),
        });
    }
    let params = TimingParams::from_ticks(
        parse_u64(line, "c1", nums[0])?,
        parse_u64(line, "c2", nums[1])?,
        parse_u64(line, "d", nums[2])?,
    )
    .map_err(|e| ReproError {
        line,
        message: format!("invalid params: {e}"),
    })?;

    let (line, value) = fields.get("expect")?;
    let expect = match value {
        "pass" => Expectation::Pass,
        "violation" => Expectation::Violation,
        other => {
            return Err(ReproError {
                line,
                message: format!("expect must be pass|violation, got `{other}`"),
            })
        }
    };

    let reason = fields.get("reason")?.1.to_string();

    let (line, value) = fields.get("input")?;
    let input = value
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(ReproError {
                line,
                message: format!("input bit must be 0 or 1, got `{other}`"),
            }),
        })
        .collect::<Result<Vec<bool>, _>>()?;

    let gaps = |key: &str| -> Result<Vec<u64>, ReproError> {
        let (line, value) = fields.get(key)?;
        value
            .split_whitespace()
            .map(|t| parse_u64(line, key, t))
            .collect()
    };
    let t_gaps = gaps("t_gaps")?;
    let r_gaps = gaps("r_gaps")?;
    let (line, value) = fields.get("gap_fallback")?;
    let gap_fallback = parse_u64(line, "gap_fallback", value)?;

    let (line, value) = fields.get("data_fates")?;
    let data_fates = parse_fates(line, value)?;
    let (line, value) = fields.get("ack_fates")?;
    let ack_fates = parse_fates(line, value)?;
    let (line, value) = fields.get("data_fallback")?;
    let data_fallback = parse_u64(line, "data_fallback", value)?;
    let (line, value) = fields.get("ack_fallback")?;
    let ack_fallback = parse_u64(line, "ack_fallback", value)?;

    let corruption = match fields.get_opt("corruption") {
        None => None,
        Some((line, value)) => Some(parse_corruption(line, value)?),
    };

    Ok(Repro {
        scenario: Scenario {
            kind,
            params,
            input,
            t_gaps,
            r_gaps,
            gap_fallback,
            data: ScriptedDelivery::new(data_fates, data_fallback),
            ack: ScriptedDelivery::new(ack_fates, ack_fallback),
            corruption,
        },
        expect,
        reason,
    })
}

fn parse_corruption(line: usize, value: &str) -> Result<CorruptionSpec, ReproError> {
    let mut at_event = None;
    let mut seed = None;
    for word in value.split_whitespace() {
        let (key, v) = word.split_once('=').ok_or_else(|| ReproError {
            line,
            message: format!("corruption argument `{word}` is not key=value"),
        })?;
        match key {
            "at" => at_event = Some(parse_u64(line, "corruption at", v)?),
            "seed" => seed = Some(parse_u64(line, "corruption seed", v)?),
            _ => {
                return Err(ReproError {
                    line,
                    message: format!("unknown corruption argument `{key}`"),
                })
            }
        }
    }
    match (at_event, seed) {
        (Some(at_event), Some(seed)) => Ok(CorruptionSpec { at_event, seed }),
        _ => Err(ReproError {
            line,
            message: "corruption needs both at=<n> and seed=<n>".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rstp_sim::ProtocolKind;

    #[test]
    fn round_trips_every_protocol_kind() {
        let params = TimingParams::from_ticks(1, 2, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let kinds = [
            ProtocolKind::Alpha,
            ProtocolKind::Beta { k: 4 },
            ProtocolKind::Gamma { k: 3 },
            ProtocolKind::AltBit {
                timeout_steps: Some(20),
            },
            ProtocolKind::AltBit {
                timeout_steps: None,
            },
            ProtocolKind::Framed { k: 4 },
            ProtocolKind::BetaWindow { k: 4 },
            ProtocolKind::Stenning {
                timeout_steps: None,
            },
            ProtocolKind::Pipelined { k: 4, window: 3 },
            ProtocolKind::StabStenning {
                timeout_steps: Some(9),
            },
            ProtocolKind::StabStenning {
                timeout_steps: None,
            },
            ProtocolKind::StabBeta { k: 4 },
        ];
        for kind in kinds {
            let repro = Repro {
                scenario: Scenario::generate(kind, params, &mut rng, 10),
                expect: Expectation::Pass,
                reason: "round-trip test".into(),
            };
            let text = render_repro(&repro);
            let back = parse_repro(&text).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_eq!(back, repro, "{}", kind.name());
            // Canonical form is a fixpoint.
            assert_eq!(render_repro(&back), text);
        }
    }

    #[test]
    fn corruption_line_round_trips_and_stays_optional() {
        let params = TimingParams::from_ticks(1, 2, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        // Draw until the generator scripts a corruption (p = 0.7 per draw).
        let scenario = std::iter::repeat_with(|| {
            Scenario::generate(ProtocolKind::StabBeta { k: 3 }, params, &mut rng, 8)
        })
        .find(|s| s.corruption.is_some())
        .unwrap();
        let repro = Repro {
            scenario,
            expect: Expectation::Violation,
            reason: "corruption round-trip".into(),
        };
        let text = render_repro(&repro);
        assert!(text.contains("corruption = at="), "{text}");
        let back = parse_repro(&text).unwrap();
        assert_eq!(back, repro);
        assert_eq!(render_repro(&back), text);

        // Dropping the line parses to the same scenario without a fault.
        let without: String = text
            .lines()
            .filter(|l| !l.starts_with("corruption"))
            .map(|l| format!("{l}\n"))
            .collect();
        let clean = parse_repro(&without).unwrap();
        assert_eq!(clean.scenario.corruption, None);

        // A half-specified line is a parse error, not a silent default.
        let bad = without + "corruption = at=3\n";
        assert!(parse_repro(&bad).is_err());
    }

    #[test]
    fn fate_tokens_round_trip() {
        let text = "rstp-check repro v1\n\
                    protocol = stenning timeout=12\n\
                    params = 1 2 4\n\
                    expect = violation\n\
                    reason = crafted\n\
                    input = 10\n\
                    t_gaps = 1 2\n\
                    r_gaps =\n\
                    gap_fallback = 2\n\
                    data_fates = 3 drop dup:0,4\n\
                    ack_fates =\n\
                    data_fallback = 0\n\
                    ack_fallback = 4\n";
        let repro = parse_repro(text).unwrap();
        assert_eq!(
            repro.scenario.data.fates(),
            [
                PacketFate::Deliver(3),
                PacketFate::Drop,
                PacketFate::Duplicate(0, 4)
            ]
        );
        assert!(!repro.scenario.is_fault_free());
        assert_eq!(render_repro(&repro), text);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "rstp-check repro v1\nprotocol = beta\n";
        let err = parse_repro(bad).unwrap_err();
        assert_eq!(err.line, 2);

        let err = parse_repro("nope\n").unwrap_err();
        assert_eq!(err.line, 1);
    }
}
