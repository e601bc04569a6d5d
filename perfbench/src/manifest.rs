//! The run manifest: what was measured, where, and how often.

use std::path::Path;

use lcm_core::jsonw::Json;

use crate::stats;
use crate::workloads::RunConfig;

/// The run manifest as one JSON object: the commit (`"unknown"` outside a
/// repository), the cores the process may use, the build profile, the
/// jobs, the workload, seed and length of the run, whether it was traced,
/// and the set-up repetitions with their median, min and max.
pub fn to_json(workload: &str, cfg: &RunConfig, setup_s: &[f64]) -> String {
    let num = Json::Num;
    let (min, max) = setup_s
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let commit = read_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::Obj(vec![
        ("commit".into(), Json::Str(commit)),
        ("nproc".into(), num(nproc as f64)),
        ("profile".into(), Json::Str(profile.into())),
        ("jobs".into(), num(crate::JOBS as f64)),
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), num(cfg.seed as f64)),
        ("seconds".into(), num(cfg.seconds)),
        ("traced".into(), Json::Bool(cfg.trace)),
        (
            "setup_s".into(),
            Json::Obj(vec![
                ("repetitions".into(), num(setup_s.len() as f64)),
                ("median".into(), num(stats::median(setup_s))),
                ("min".into(), num(min)),
                ("max".into(), num(max)),
            ]),
        ),
    ])
    .render()
}

/// Resolves `HEAD` from a `.git` directory without running `git`: a
/// detached `HEAD` holds the hash, otherwise it names a ref that is
/// either a loose file or a line of `packed-refs`.
fn read_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_is_read_from_loose_and_packed_refs() {
        let dir = Path::new(".perfbench_tmp").join(format!("git-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            dir.join("packed-refs"),
            "# pack-refs\nabc123 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(read_commit(&dir).as_deref(), Some("abc123"));
        std::fs::write(dir.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(read_commit(&dir).as_deref(), Some("def456"));
        std::fs::write(dir.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(read_commit(&dir).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(read_commit(&dir), None);
    }

    #[test]
    fn manifest_reports_repetitions_and_spread() {
        let cfg = RunConfig {
            seed: 1,
            seconds: 2.0,
            trace: false,
            scratch: ".".into(),
        };
        let json = to_json("audit_clou", &cfg, &[0.3, 0.1, 0.2]);
        let v = lcm_core::jsonw::parse(&json).unwrap();
        let setup = v.get("setup_s").unwrap();
        assert_eq!(setup.get("repetitions").and_then(Json::as_u64), Some(3));
        assert_eq!(setup.get("median").and_then(Json::as_f64), Some(0.2));
        assert_eq!(setup.get("max").and_then(Json::as_f64), Some(0.3));
        assert_eq!(v.get("jobs").and_then(Json::as_u64), Some(2));
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
