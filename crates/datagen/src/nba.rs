//! A synthetic stand-in for the paper's real dataset: per-season NBA player
//! statistics (databasebasketball.com, ~15 000 player-season records since
//! 1979, 8 per-game skyline attributes).
//!
//! The Figure 14 experiment varies (a) the grouping attribute — which
//! controls how many groups there are and how large they get — and (b) the
//! number of skyline attributes (3–8). The generator reproduces both axes
//! with the real dataset's shape: ~2 300 players with long-tailed career
//! lengths over seasons 1979–2011, ~30 teams, 5 positions, and positively
//! correlated per-game stats driven by a per-player skill level (real sports
//! stats are correlated, which is what makes Figure 14's workloads "easier"
//! than anti-correlated synthetic data).

use crate::rng::Rng64;
use crate::zipf::Zipf;
use aggsky_core::{GroupedDataset, GroupedDatasetBuilder};

/// Names of the 8 per-game skyline attributes, in the paper's order.
pub const STAT_NAMES: [&str; 8] = [
    "points",
    "rebounds",
    "assists",
    "steals",
    "blocks",
    "field_goals",
    "free_throws",
    "three_points",
];

/// One player-season row.
#[derive(Debug, Clone)]
pub struct NbaRecord {
    /// Player identifier (`0..n_players`).
    pub player: u32,
    /// Team identifier (`0..30`).
    pub team: u16,
    /// Season year (1979..=2011).
    pub year: u16,
    /// Position (`0..5`: PG, SG, SF, PF, C).
    pub position: u8,
    /// The 8 per-game statistics, see [`STAT_NAMES`].
    pub stats: [f64; 8],
}

/// Attribute to group player-season records by (the paper's Figure 14 uses
/// "both single and multiple attributes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NbaGrouping {
    /// ~2 300 groups with heavy-tailed sizes (career lengths).
    Player,
    /// 30 large groups.
    Team,
    /// 33 large groups.
    Year,
    /// ~1 000 medium groups (multiple-attribute grouping).
    TeamYear,
    /// 5 very large groups.
    Position,
}

impl NbaGrouping {
    /// All grouping attributes exercised by the Figure 14 harness.
    pub const ALL: [NbaGrouping; 5] = [
        NbaGrouping::Player,
        NbaGrouping::Team,
        NbaGrouping::Year,
        NbaGrouping::TeamYear,
        NbaGrouping::Position,
    ];

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            NbaGrouping::Player => "player",
            NbaGrouping::Team => "team",
            NbaGrouping::Year => "year",
            NbaGrouping::TeamYear => "team+year",
            NbaGrouping::Position => "position",
        }
    }

    fn key(self, r: &NbaRecord) -> String {
        match self {
            NbaGrouping::Player => format!("p{}", r.player),
            NbaGrouping::Team => format!("t{}", r.team),
            NbaGrouping::Year => format!("y{}", r.year),
            NbaGrouping::TeamYear => format!("t{}y{}", r.team, r.year),
            NbaGrouping::Position => format!("pos{}", r.position),
        }
    }
}

/// Per-position archetype multipliers for
/// (points, rebounds, assists, steals, blocks, fg, ft, 3p).
const POSITION_PROFILE: [[f64; 8]; 5] = [
    // PG: assists/steals/threes heavy.
    [1.0, 0.5, 1.8, 1.4, 0.3, 0.95, 1.05, 1.5],
    // SG: scoring and threes.
    [1.15, 0.6, 1.0, 1.2, 0.4, 1.0, 1.05, 1.4],
    // SF: balanced.
    [1.05, 0.9, 0.8, 1.0, 0.7, 1.0, 1.0, 1.0],
    // PF: rebounds/blocks.
    [0.95, 1.4, 0.5, 0.8, 1.3, 1.05, 0.95, 0.5],
    // C: rebounds/blocks heavy, no threes.
    [0.9, 1.7, 0.35, 0.6, 1.8, 1.1, 0.85, 0.15],
];

/// League-average per-game base for each stat.
const STAT_BASE: [f64; 8] = [9.0, 4.0, 2.2, 0.8, 0.5, 3.5, 1.8, 0.7];

/// Generates `~n_records` player-season rows (default 15 000 to match the
/// paper). Deterministic per seed.
pub fn generate_nba(n_records: usize, seed: u64) -> Vec<NbaRecord> {
    let mut rng = Rng64::new(seed);
    let years: Vec<u16> = (1979..=2011).collect();
    // Career lengths are heavy-tailed: most players last a few seasons, a
    // few star for 15+.
    let career = Zipf::new(18, 0.9);
    let mut records = Vec::with_capacity(n_records);
    let mut player: u32 = 0;
    while records.len() < n_records {
        let position = rng.index(5) as u8;
        // Skill in (0, 1), bell-shaped with a long right tail.
        let base: f64 = (rng.f64() + rng.f64() + rng.f64()) / 3.0;
        let skill = (base * base * 1.6).min(1.0);
        let length = career.sample(&mut rng);
        let start = years.get(rng.index(years.len())).copied().unwrap_or(1979);
        let mut team: u16 = rng.index(30) as u16;
        for s in 0..length {
            if records.len() >= n_records {
                break;
            }
            let year = start + s as u16;
            if year > 2011 {
                break;
            }
            // Players occasionally change teams.
            if rng.chance(0.15) {
                team = rng.index(30) as u16;
            }
            // Career arc: ramp up, peak mid-career, decline.
            let arc = 1.0 - ((s as f64 - length as f64 / 2.0) / length as f64).powi(2);
            let mut stats = [0.0f64; 8];
            let profile = POSITION_PROFILE.get(usize::from(position)).copied().unwrap_or_default();
            for ((stat, base), weight) in stats.iter_mut().zip(STAT_BASE).zip(profile) {
                let noise = 0.75 + rng.f64() * 0.5;
                *stat = base * weight * (0.35 + 1.9 * skill) * arc * noise;
                *stat = (*stat * 10.0).round() / 10.0; // one decimal, like box scores
            }
            records.push(NbaRecord { player, team, year, position, stats });
        }
        player += 1;
    }
    records
}

/// Groups player-season rows by an attribute, keeping the first `n_attrs`
/// skyline statistics (3 ≤ `n_attrs` ≤ 8, per Figure 14).
pub fn nba_dataset(records: &[NbaRecord], grouping: NbaGrouping, n_attrs: usize) -> GroupedDataset {
    assert!((1..=8).contains(&n_attrs), "1..=8 skyline attributes");
    // Stable insertion-ordered grouping.
    let mut groups: Vec<(String, Vec<Vec<f64>>)> = Vec::new();
    let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for r in records {
        let key = grouping.key(r);
        let g = *index.entry(key.clone()).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        if let Some((_, rows)) = groups.get_mut(g) {
            rows.push(r.stats.iter().take(n_attrs).copied().collect());
        }
    }
    let mut b = GroupedDatasetBuilder::new(n_attrs).trusted_labels();
    for (key, rows) in &groups {
        b.push_group(key.as_str(), rows).expect("generated rows are well-formed");
    }
    b.build().expect("generated dataset is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_hits_target_size_and_is_deterministic() {
        let a = generate_nba(2000, 7);
        let b = generate_nba(2000, 7);
        assert_eq!(a.len(), 2000);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].stats, b[0].stats);
        assert_eq!(a[1999].player, b[1999].player);
    }

    #[test]
    fn stats_are_plausible() {
        let recs = generate_nba(5000, 1);
        for r in &recs {
            assert!(r.stats.iter().all(|&s| (0.0..=80.0).contains(&s)), "{:?}", r.stats);
            assert!((1979..=2011).contains(&r.year));
            assert!(r.team < 30 && r.position < 5);
        }
        // Mean points per game should be in a basketball-plausible band.
        let mean_pts = recs.iter().map(|r| r.stats[0]).sum::<f64>() / recs.len() as f64;
        assert!((4.0..=16.0).contains(&mean_pts), "mean points {mean_pts}");
    }

    #[test]
    fn stats_are_positively_correlated() {
        // Points and field goals both scale with skill: strong correlation,
        // matching the "real data is easy" observation of Figure 14.
        let recs = generate_nba(5000, 2);
        let xs: Vec<f64> = recs.iter().map(|r| r.stats[0]).collect();
        let ys: Vec<f64> = recs.iter().map(|r| r.stats[5]).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        let r = cov / (vx.sqrt() * vy.sqrt());
        assert!(r > 0.5, "points/fg correlation {r}");
    }

    #[test]
    fn grouping_cardinalities_have_the_right_shape() {
        let recs = generate_nba(15_000, 3);
        let by_player = nba_dataset(&recs, NbaGrouping::Player, 8);
        let by_team = nba_dataset(&recs, NbaGrouping::Team, 8);
        let by_year = nba_dataset(&recs, NbaGrouping::Year, 8);
        let by_ty = nba_dataset(&recs, NbaGrouping::TeamYear, 8);
        let by_pos = nba_dataset(&recs, NbaGrouping::Position, 8);
        assert!(by_player.n_groups() > 1000, "players: {}", by_player.n_groups());
        assert_eq!(by_team.n_groups(), 30);
        assert_eq!(by_year.n_groups(), 33);
        assert!(by_ty.n_groups() > 500, "team+year: {}", by_ty.n_groups());
        assert_eq!(by_pos.n_groups(), 5);
        assert_eq!(by_player.n_records(), 15_000);
        assert_eq!(by_ty.n_records(), 15_000);
    }

    #[test]
    fn attr_projection_keeps_prefix() {
        let recs = generate_nba(100, 4);
        let ds3 = nba_dataset(&recs, NbaGrouping::Team, 3);
        let ds8 = nba_dataset(&recs, NbaGrouping::Team, 8);
        assert_eq!(ds3.dim(), 3);
        assert_eq!(ds8.dim(), 8);
        assert_eq!(ds3.record(0, 0), &ds8.record(0, 0)[..3]);
    }
}
