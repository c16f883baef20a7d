//! `rstp check` — the coverage-guided adversarial schedule fuzzer.
//!
//! ```text
//! rstp check --seed 0 --iters 500                 # fuzz alpha, beta, gamma
//! rstp check --protocol gamma --k 4 --iters 2000  # one protocol, harder
//! rstp check --minimize tests/corpus/foo.repro    # re-shrink a repro file
//! ```
//!
//! Campaigns are deterministic: the same seed yields the same coverage
//! counters, the same failures, and the same corpus files. Minimized
//! failures are written under `--corpus` (default `tests/corpus`) so they
//! replay as cargo tests from then on.
//!
//! `--json FILE` additionally writes a machine-readable campaign summary
//! (protocols, iteration counts, coverage buckets, failures with their
//! repro paths). The file is written *before* a failing campaign turns
//! into a nonzero exit, so CI can always collect it as an artifact.

use core::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::args::{ArgError, Args};
use crate::commands::{protocol_named, timing};
use rstp_bench::json::Json;
use rstp_check::{
    fuzz, parse_repro, render_repro, run_scenario, shrink, Expectation, FoundFailure, FuzzConfig,
    FuzzReport, Repro,
};
use rstp_sim::ProtocolKind;

const FLAGS: &[&str] = &[
    "protocol",
    "k",
    "window",
    "timeout",
    "seed",
    "iters",
    "c1",
    "c2",
    "d",
    "max-input",
    "differential",
    "corpus",
    "minimize",
    "out",
    "json",
];

/// Event budget for replays and shrinks driven from the CLI.
const MAX_EVENTS: u64 = 500_000;

/// `rstp check`
pub fn cmd_check(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(FLAGS)?;
    if let Some(path) = args.get("minimize") {
        return cmd_minimize(args, path);
    }

    let params = timing(args)?;
    let kinds = fuzz_targets(args)?;
    let seed = args.get_u64("seed", 0)?;
    let iters = args.get_u64("iters", 500)?;
    let max_input = args.get_usize("max-input", 24)?;
    let differential = args.get_u64("differential", 250)?;
    let corpus = args.get("corpus").unwrap_or("tests/corpus").to_string();

    let mut out = String::new();
    let mut total_failures = 0usize;
    let mut campaigns: Vec<(FuzzReport, Vec<String>)> = Vec::new();
    for kind in kinds {
        let mut cfg = FuzzConfig::new(kind, params);
        cfg.seed = seed;
        cfg.iters = iters;
        cfg.max_input = max_input;
        cfg.max_events = MAX_EVENTS;
        cfg.differential_every = differential;
        let report = fuzz(&cfg);
        render_report(&mut out, &report);
        let mut repro_paths = Vec::new();
        for found in &report.failures {
            let path = corpus_path(&corpus, kind, seed, found.iteration);
            write_repro(&path, found)?;
            let _ = writeln!(out, "  repro written to {path}");
            repro_paths.push(path);
        }
        total_failures += report.failures.len();
        campaigns.push((report, repro_paths));
    }
    // The JSON summary goes out before a failure turns into a nonzero
    // exit, so CI can collect it as an artifact either way.
    if let Some(path) = args.get("json") {
        let text = campaign_json(seed, iters, max_input, &campaigns).render();
        fs::write(path, text + "\n").map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "json summary written to {path}");
    }
    if total_failures > 0 {
        // Surface failures through the exit code so CI cannot miss them.
        return Err(ArgError(format!(
            "{out}\n{total_failures} invariant failure(s) found"
        )));
    }
    Ok(out)
}

/// The machine-readable campaign summary behind `--json`.
fn campaign_json(
    seed: u64,
    iters: u64,
    max_input: usize,
    campaigns: &[(FuzzReport, Vec<String>)],
) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let campaign_values = campaigns
        .iter()
        .map(|(report, repro_paths)| {
            let failures = report
                .failures
                .iter()
                .zip(repro_paths)
                .map(|(found, path)| {
                    Json::Obj(vec![
                        ("iteration".into(), num(found.iteration)),
                        ("failure".into(), Json::Str(found.failure.to_string())),
                        ("original_events".into(), num(found.original_events)),
                        ("shrunk_events".into(), num(found.events)),
                        ("repro".into(), Json::Str(path.clone())),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("protocol".into(), Json::Str(report.protocol.clone())),
                ("iterations".into(), num(report.iterations)),
                (
                    "coverage".into(),
                    Json::Obj(vec![
                        ("total".into(), num(report.coverage.total)),
                        ("occupancy".into(), num(report.coverage.occupancy)),
                        ("reorder".into(), num(report.coverage.reorder)),
                        ("slack".into(), num(report.coverage.slack)),
                        ("outcome".into(), num(report.coverage.outcome)),
                    ]),
                ),
                ("pool".into(), num(report.pool as u64)),
                ("failures".into(), Json::Arr(failures)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("seed".into(), num(seed)),
        ("iters".into(), num(iters)),
        ("max_input".into(), num(max_input as u64)),
        ("campaigns".into(), Json::Arr(campaign_values)),
        (
            "total_failures".into(),
            num(campaigns.iter().map(|(r, _)| r.failures.len() as u64).sum()),
        ),
    ])
}

/// The protocols a campaign covers: `--protocol` if given, else the
/// paper's trio.
fn fuzz_targets(args: &Args) -> Result<Vec<ProtocolKind>, ArgError> {
    let timeout =
        match args.get("timeout") {
            None | Some("none") => None,
            Some(v) => Some(v.parse().map_err(|_| {
                ArgError(format!("--timeout expects an integer or `none`, got {v:?}"))
            })?),
        };
    let names = args
        .get("protocol")
        .map_or(vec!["alpha", "beta", "gamma"], |name| vec![name]);
    names
        .into_iter()
        .map(|name| protocol_named(args, name, timeout))
        .collect()
}

fn render_report(out: &mut String, report: &FuzzReport) {
    let _ = writeln!(
        out,
        "{}: {} iterations, coverage {}, pool {}",
        report.protocol, report.iterations, report.coverage, report.pool
    );
    for found in &report.failures {
        let _ = writeln!(
            out,
            "  FAILURE at iteration {}: {} (shrunk {} -> {} events)",
            found.iteration, found.failure, found.original_events, found.events
        );
    }
}

/// Filesystem-safe deterministic repro path.
fn corpus_path(dir: &str, kind: ProtocolKind, seed: u64, iteration: u64) -> String {
    let slug: String = kind
        .name()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect::<String>()
        .trim_matches('-')
        .replace("--", "-");
    format!("{dir}/{slug}-seed{seed}-i{iteration}.repro")
}

fn write_repro(path: &str, found: &FoundFailure) -> Result<(), ArgError> {
    if let Some(parent) = Path::new(path).parent() {
        fs::create_dir_all(parent)
            .map_err(|e| ArgError(format!("cannot create {}: {e}", parent.display())))?;
    }
    let text = render_repro(&Repro {
        scenario: found.scenario.clone(),
        expect: Expectation::Violation,
        reason: found.failure.to_string(),
    });
    fs::write(path, text).map_err(|e| ArgError(format!("cannot write {path}: {e}")))
}

/// `rstp check --minimize <file>`: re-run a committed repro and shrink it
/// further if it still fails.
fn cmd_minimize(args: &Args, path: &str) -> Result<String, ArgError> {
    let text =
        fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let repro = parse_repro(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let run = run_scenario(&repro.scenario, MAX_EVENTS);
    let Some(failure) = run.failure else {
        return Ok(format!(
            "{path}: every oracle passes ({} events); nothing to minimize\n",
            run.events
        ));
    };
    let kind = failure.kind;
    let (minimized, events) = shrink(
        &repro.scenario,
        run.events,
        |candidate| {
            let r = run_scenario(candidate, MAX_EVENTS);
            match r.failure {
                Some(f) if f.kind == kind => Some(r.events),
                _ => None,
            }
        },
        600,
    );
    let rendered = render_repro(&Repro {
        scenario: minimized,
        expect: Expectation::Violation,
        reason: failure.to_string(),
    });
    let mut out = format!(
        "{path}: still failing ({failure}); minimized {} -> {events} events\n",
        run.events
    );
    if let Some(dest) = args.get("out") {
        fs::write(dest, &rendered).map_err(|e| ArgError(format!("cannot write {dest}: {e}")))?;
        let _ = writeln!(out, "minimized repro written to {dest}");
    } else {
        out.push_str(&rendered);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> Result<String, ArgError> {
        cmd_check(&Args::parse(argv.iter().copied()).unwrap())
    }

    #[test]
    fn short_campaigns_pass_and_render_coverage() {
        let out = run(&["check", "--iters", "10", "--seed", "0", "--max-input", "8"]).unwrap();
        assert!(out.contains("alpha:"));
        assert!(out.contains("beta(k=4):"));
        assert!(out.contains("gamma(k=4):"));
        assert!(out.contains("coverage"));
        assert!(!out.contains("FAILURE"));
    }

    #[test]
    fn campaign_output_is_deterministic() {
        let argv = [
            "check",
            "--protocol",
            "gamma",
            "--iters",
            "25",
            "--seed",
            "7",
        ];
        assert_eq!(run(&argv).unwrap(), run(&argv).unwrap());
    }

    #[test]
    fn unknown_protocol_is_rejected() {
        assert!(run(&["check", "--protocol", "omega"]).is_err());
    }

    #[test]
    fn json_flag_writes_a_campaign_summary() {
        let dir = std::env::temp_dir().join("rstp-check-cli-json-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.json");
        let out = run(&[
            "check",
            "--protocol",
            "alpha",
            "--iters",
            "10",
            "--seed",
            "0",
            "--max-input",
            "8",
            "--json",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("json summary written"), "{out}");
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"campaigns\""), "{text}");
        assert!(text.contains("\"protocol\": \"alpha\""), "{text}");
        assert!(text.contains("\"total_failures\": 0"), "{text}");
        assert!(text.contains("\"occupancy\""), "{text}");
    }

    #[test]
    fn minimize_reports_passing_repros() {
        let dir = std::env::temp_dir().join("rstp-check-cli-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pass.repro");
        fs::write(
            &path,
            "rstp-check repro v1\n\
             protocol = alpha\n\
             params = 1 2 6\n\
             expect = pass\n\
             reason = crafted\n\
             input = 101\n\
             t_gaps = 2 1\n\
             r_gaps =\n\
             gap_fallback = 2\n\
             data_fates = 6 0\n\
             ack_fates =\n\
             data_fallback = 0\n\
             ack_fallback = 6\n",
        )
        .unwrap();
        let out = run(&["check", "--minimize", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("every oracle passes"));
    }
}
