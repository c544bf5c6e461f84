//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [table2|fig1|fig2|fig3|fig4|fig5|fig6|fig7|ablation|genwc|index|all]...
//! experiments layers [out.json]     # gated kernel/tier sweep (never part of `all`)
//! ```
//!
//! Scale is controlled by `SUBSIM_SCALE=small|paper` (default `paper`).
//! Output rows mirror the paper's series; `EXPERIMENTS.md` records a full
//! run next to the paper's reported numbers.

use subsim_bench::workloads::Scale;
use subsim_bench::{harness, layers};

fn main() {
    let scale = Scale::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wants = |what: &str| args.is_empty() || args.iter().any(|a| a == what || a == "all");

    // Explicit-only (deliberately not reachable through `all` or the
    // empty-args default): writes a JSON artifact rather than a figure,
    // and exits non-zero, writing nothing, if any gate fails.
    if args.first().map(String::as_str) == Some("layers") {
        let out = args
            .get(1)
            .map(String::as_str)
            .unwrap_or("BENCH_layers.json");
        if let Err(failures) = layers::layers(scale, out) {
            for failure in &failures {
                eprintln!("gate failed: {failure}");
            }
            eprintln!("{} gate(s) failed; no artifact written", failures.len());
            std::process::exit(1);
        }
        return;
    }

    harness::preamble(scale);
    if wants("table2") {
        harness::table2(scale);
    }
    if wants("fig1") {
        harness::fig1(scale);
    }
    if wants("fig2") {
        harness::fig2(scale);
    }
    if wants("fig3") {
        harness::fig3(scale);
    }
    if wants("fig4") {
        harness::fig4(scale);
    }
    if wants("fig5") {
        harness::fig5(scale);
    }
    if wants("fig6") {
        harness::fig6(scale);
    }
    if wants("fig7") {
        harness::fig7(scale);
    }
    if wants("ablation") {
        harness::ablation(scale);
    }
    if wants("genwc") {
        harness::gen_wc(scale);
    }
    if wants("index") {
        harness::index_amortization(scale);
    }
}
