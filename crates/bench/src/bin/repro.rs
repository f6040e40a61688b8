//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--scale <0..1>] [--seed <u64>] [section ...]
//! ```
//!
//! Sections: `funnel`, `table1`–`table5`, `fig5`–`fig8`, `leakage`,
//! `cookies`, `syncing`, `filterlists`, `children`, `consent`,
//! `policies`, `fivepm`, `stats`, or `all` (default). With no
//! `--scale`, the full 3,575-service world of the paper is generated
//! and all five measurement runs are performed.

use hbbtv_bench::cli::study_args_or_exit;
use hbbtv_bench::{full_report, run_study};
use hbbtv_study::tables;

fn main() {
    let args = study_args_or_exit("repro [--scale <0..1>] [--seed <u64>] [section ...]", 1.0);
    let (scale, seed) = (args.scale, args.seed);
    let mut sections = args.positional;
    if sections.is_empty() {
        sections.push("all".to_string());
    }
    let want = |name: &str| sections.iter().any(|s| s == name || s == "all");

    eprintln!("generating world (seed {seed}, scale {scale}) and running the study ...");
    let (eco, dataset) = run_study(seed, scale);
    eprintln!(
        "captured {} requests, {} screenshots; computing analyses ...",
        dataset.total_requests(),
        dataset.total_screenshots()
    );
    let report = full_report(&eco, &dataset);

    if want("funnel") {
        let (funnel, _) = eco.lineup().funnel(|_, ait| ait.signals_hbbtv());
        println!("Channel-selection funnel (section IV-B)");
        println!("{funnel}\n");
    }
    if want("table1") {
        println!(
            "{}",
            tables::table1(&dataset, &report.cookies, &report.protocol)
        );
    }
    if want("table2") {
        println!("{}", tables::table2(&report.cookies));
    }
    if want("table3") {
        println!("{}", tables::table3(&report.tracking));
    }
    if want("table4") {
        println!("{}", tables::table4(&report.consent));
    }
    if want("table5") {
        println!("{}", tables::table5(&report.consent));
    }
    if want("fig5") {
        println!("{}", tables::figure5(&report.cookies));
    }
    if want("fig6") {
        println!("{}", tables::figure6(&report.tracking));
    }
    if want("fig7") {
        println!("{}", tables::figure7(&report.categories));
    }
    if want("fig8") {
        println!("{}", tables::figure8(&report.graph));
    }
    if want("leakage")
        || want("cookies")
        || want("syncing")
        || want("filterlists")
        || want("children")
        || want("consent")
        || want("policies")
        || want("fivepm")
        || want("stats")
    {
        println!("{}", report.render_findings());
    }
}
