//! The committed campaign matrices' digests, pinned. Config digests key
//! journal resume, so a change to any of them would silently re-run every
//! journaled run; state digests are what the runs compute.

use std::path::{Path, PathBuf};

use sim_harness::{load_journal, run_campaign, Campaign, CampaignOptions};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn matrix(name: &str) -> Campaign {
    let path = repo_root().join("docs/campaigns").join(name);
    let text = std::fs::read_to_string(&path).unwrap();
    Campaign::from_toml_str(&text).unwrap()
}

/// The distinct config digests of a campaign, in expansion order.
fn distinct_digests(campaign: &Campaign) -> Vec<String> {
    let mut digests: Vec<String> = campaign
        .expand()
        .iter()
        .map(|run| format!("{:016x}", run.config_digest()))
        .collect();
    digests.dedup();
    digests
}

#[test]
fn committed_campaign_config_digests_are_pinned() {
    assert_eq!(
        distinct_digests(&matrix("smoke.toml")),
        [
            "48e923c465448227", // baseline/GUPS
            "8a546dd84d142ec9", // baseline/lbm
            "46ca63ea2f778eb4", // baseline/libquantum
            "9385476a384001f7", // PRA/GUPS
            "3e6a4e2f53527cd9", // PRA/lbm
            "afa3ec5b1b81f324", // PRA/libquantum
            "c2479c0f88c9dfb0", // panic fixture
            "18f977da9a0fa216", // hang fixture
        ]
    );
    assert_eq!(
        distinct_digests(&matrix("chaos.toml")),
        [
            "b405a98b64c1deba", // PRA/GUPS
            "63e889b856ff9b75", // PRA/GUPS + docs/faults/chaos.toml
            "4acc6dfc7e73448c", // PRA/lbm
            "cc098189b81d678b", // PRA/lbm + plan
            "de27b97e167fcb0f", // Half-DRAM+PRA/GUPS
            "2ea7d099adf55d36", // Half-DRAM+PRA/GUPS + plan
            "a9ef0a2122744c73", // Half-DRAM+PRA/lbm
            "f7dd5530505f621a", // Half-DRAM+PRA/lbm + plan
        ]
    );
}

/// Runs `campaign` and returns `scheme/workload[+faults] seed state_digest`
/// for every completed run, sorted.
fn state_digests(campaign: &Campaign, tag: &str) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("sim_harness_pinned_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");
    let options = CampaignOptions {
        jobs: 2,
        journal: journal.clone(),
        resume: false,
    };
    run_campaign(campaign, &options).unwrap();
    let mut rows: Vec<String> = load_journal(&journal)
        .unwrap()
        .records
        .iter()
        .filter_map(|r| {
            let faults = if r.repro.contains("--faults") {
                "+faults"
            } else {
                ""
            };
            let digest = r.state_digest?;
            Some(format!(
                "{}/{}{faults} {} {digest:016x}",
                r.scheme, r.workload, r.seed
            ))
        })
        .collect();
    rows.sort();
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

#[test]
fn committed_campaign_state_digests_are_pinned() {
    assert_eq!(
        state_digests(&matrix("smoke.toml"), "smoke"),
        [
            "PRA/GUPS 1 2443269c98b65c10",
            "PRA/GUPS 2 ff4e0558fb3ab860",
            "PRA/lbm 1 ffa7f0649df92d32",
            "PRA/lbm 2 da3601211a8c4bd7",
            "PRA/libquantum 1 1fe702c6eb2c3792",
            "PRA/libquantum 2 7edd37741d1e5640",
            "baseline/GUPS 1 81850763d3ee4f7c",
            "baseline/GUPS 2 75418a874bbd570c",
            "baseline/lbm 1 b02d97c0988ec9da",
            "baseline/lbm 2 9740d1ca4658a8ef",
            "baseline/libquantum 1 0b1ba5c015bd1dc0",
            "baseline/libquantum 2 78e001492e5556b6",
        ]
    );
    // The matrix names its fault plan relative to the repository root;
    // point it there so the test runs from any directory. The path is part
    // of the config digest, not of what the run computes.
    let mut chaos = matrix("chaos.toml");
    chaos.fault_plans = vec![repo_root()
        .join("docs/faults/chaos.toml")
        .display()
        .to_string()];
    assert_eq!(
        state_digests(&chaos, "chaos"),
        [
            "Half-DRAM+PRA/GUPS 1 0d2a72145505e4a9",
            "Half-DRAM+PRA/GUPS 2 dac2fc0ca4871901",
            "Half-DRAM+PRA/GUPS 3 f5b44a813f9ddb76",
            "Half-DRAM+PRA/GUPS+faults 1 3d6c2dc77d1ea0b5",
            "Half-DRAM+PRA/GUPS+faults 2 07698c9d73832ac4",
            "Half-DRAM+PRA/GUPS+faults 3 c28703045f500783",
            "Half-DRAM+PRA/lbm 1 eda6c8272b2a14de",
            "Half-DRAM+PRA/lbm 2 7f474cc8426154d7",
            "Half-DRAM+PRA/lbm 3 150fee7d0a051718",
            "Half-DRAM+PRA/lbm+faults 1 c1a52a534d4304e2",
            "Half-DRAM+PRA/lbm+faults 2 8d7a96848c3ef7b4",
            "Half-DRAM+PRA/lbm+faults 3 863f60e8e9c313ff",
            "PRA/GUPS 1 754f9e35a7570c58",
            "PRA/GUPS 2 16d2a06872b1ead6",
            "PRA/GUPS 3 143a3192228ba7b8",
            "PRA/GUPS+faults 1 9109911f847d15be",
            "PRA/GUPS+faults 2 b7f29ba3f42ef200",
            "PRA/GUPS+faults 3 f2309b41f9a8c5bb",
            "PRA/lbm 1 a7a2fd3c331e63a5",
            "PRA/lbm 2 6e7cb769255fd50e",
            "PRA/lbm 3 6e640de432833ced",
            "PRA/lbm+faults 1 28fbe9b1849fc791",
            "PRA/lbm+faults 2 a9b4e69c0329875b",
            "PRA/lbm+faults 3 304e6143f0dea5cf",
        ]
    );
}
