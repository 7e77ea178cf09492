//! The numbers EXPERIMENTS.md quotes from the committed artifacts must
//! match `results/`: the Fig. 1 bandwidth table and its prose anchor, the
//! per-core miss-interval band of Fig. 9, and the aging ablation.

use std::path::Path;

fn read(path: &str) -> String {
    let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{}: {e}", full.display()))
}

/// EXPERIMENTS.md with bold markers dropped and every run of whitespace
/// folded to one space, so a quote that wraps across lines reads as one.
fn experiments() -> String {
    read("EXPERIMENTS.md")
        .replace("**", "")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// The text after each occurrence of `marker` in `doc`.
fn after<'a>(doc: &'a str, marker: &str) -> Vec<&'a str> {
    let found: Vec<&str> = doc
        .match_indices(marker)
        .map(|(i, _)| &doc[i + marker.len()..])
        .collect();
    assert!(
        !found.is_empty(),
        "EXPERIMENTS.md no longer quotes {marker:?}"
    );
    found
}

/// The leading decimal number of `s` (after optional spaces), as text.
fn number(s: &str) -> &str {
    let s = s.trim_start();
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(s.len());
    assert!(end > 0, "no number at {:?}", &s[..s.len().min(30)]);
    &s[..end]
}

/// Whitespace-split rows of `text` whose first field is a number.
fn numeric_rows(text: &str) -> Vec<Vec<&str>> {
    text.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|r| r.first().is_some_and(|f| f.parse::<f64>().is_ok()))
        .collect()
}

#[test]
fn fig1_quotes_match_results() {
    let fig1 = read("results/fig1.txt");
    // dram_capacity_%, miss_ratio, per-core GB/s, 64-core GB/s.
    let rows = numeric_rows(&fig1);
    let committed = |capacity: &str| -> (&str, &str) {
        let cap: f64 = capacity.parse().expect("capacity");
        let row = rows
            .iter()
            .find(|r| r[0].parse::<f64>() == Ok(cap))
            .unwrap_or_else(|| panic!("results/fig1.txt has no {capacity} % row"));
        (row[1], row[3])
    };
    let raw = read("EXPERIMENTS.md");
    let section = &raw[raw.find("## Fig. 1").expect("Fig. 1 section")..];
    let section = &section[..section[1..].find("\n## ").map_or(section.len(), |i| i + 1)];
    let mut quoted = 0;
    for line in section
        .lines()
        .filter(|l| l.starts_with('|') && l.contains("GB/s"))
    {
        let cells: Vec<&str> = line
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().trim_matches('*'))
            .collect();
        let (miss, bw) = committed(number(cells[0]));
        assert_eq!(number(cells[1]), miss, "Fig. 1 miss ratio at {}", cells[0]);
        assert_eq!(number(cells[2]), bw, "Fig. 1 bandwidth at {}", cells[0]);
        quoted += 1;
    }
    assert_eq!(quoted, 5, "Fig. 1 table rows");
    let doc = experiments();
    let prose = after(&doc, "for 64 cores. Measured: ")[0];
    assert_eq!(number(prose), committed("3").1, "Fig. 1 anchor in prose");
}

#[test]
fn miss_interval_band_matches_fig9() {
    let fig9 = read("results/fig9.txt");
    let intervals: Vec<f64> = fig9
        .lines()
        .skip_while(|l| !l.starts_with("observed DRAM-cache miss intervals"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            l.split_whitespace()
                .last()
                .expect("interval")
                .parse()
                .expect("µs")
        })
        .collect();
    assert_eq!(intervals.len(), 7, "one interval per workload");
    let lo = intervals.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = intervals.iter().copied().fold(0.0, f64::max);
    let band = format!("{lo:.1}–{hi:.1} µs");
    let doc = experiments();
    for marker in ["miss intervals: ", "misses arrive every "] {
        for rest in after(&doc, marker) {
            assert!(
                rest.starts_with(&band),
                "{marker:?} quotes {:?}, not {band}",
                &rest[..20]
            );
        }
    }
}

#[test]
fn aging_ablation_matches_results() {
    let ablations = read("results/ablations.txt");
    let section = &ablations[ablations
        .find("Aging-threshold multiplier")
        .expect("aging sweep")..];
    let section = &section[..section.find("\n\n").unwrap_or(section.len())];
    let rows = numeric_rows(section);
    // multiplier, throughput_jobs_s, p99_service_us, forced_sync.
    let row = |m: &str| rows.iter().find(|r| r[0] == m).expect("multiplier row");
    let throughput = |m: &str| row(m)[1].parse::<f64>().expect("throughput");
    let drop_pct = ((1.0 - throughput("1") / throughput("2")) * 100.0).round();
    let doc = experiments();
    let rest = &after(&doc, "flash-latency variance (")[0];
    assert_eq!(number(rest), row("1")[3], "forced synchronous blocks at 1×");
    let quoted = &rest[rest.find('−').expect("a quoted throughput drop") + '−'.len_utf8()..];
    assert_eq!(
        number(quoted),
        format!("{drop_pct}"),
        "throughput drop at 1× vs 2×"
    );
}
