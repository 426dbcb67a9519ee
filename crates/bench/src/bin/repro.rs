//! Paper-figure reproduction harness.
//!
//! ```text
//! cargo run -p rpq-bench --release --bin repro            # all figures
//! cargo run -p rpq-bench --release --bin repro -- fig13c  # one figure
//! cargo run -p rpq-bench --release --bin repro -- --quick # smoke scale
//! ```

use rpq_bench::experiments::{self, Scale};
use rpq_bench::{Dataset, Table};

/// One figure's experiment.
type Figure = fn(Scale) -> Table;

/// The figures `repro` regenerates, in print order.
const FIGURES: [(&str, Figure); 10] = [
    ("fig13a", experiments::fig13a),
    ("fig13b", experiments::fig13b),
    ("fig13c", experiments::fig13c),
    ("fig13d", experiments::fig13d),
    ("fig13e", |s| experiments::fig13ef(&Dataset::bioaid(), s)),
    ("fig13f", |s| experiments::fig13ef(&Dataset::qblast(), s)),
    ("fig13g", |s| experiments::fig13gh(&Dataset::bioaid(), s)),
    ("fig13h", |s| experiments::fig13gh(&Dataset::qblast(), s)),
    ("fig15a", |s| experiments::fig15(&Dataset::bioaid(), s)),
    ("fig15b", |s| experiments::fig15(&Dataset::qblast(), s)),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let figures: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();
    let names = FIGURES.map(|(name, _)| name);
    if let Some(unknown) = figures.iter().find(|f| !names.contains(&f.as_str())) {
        eprintln!(
            "repro: unknown figure {unknown:?}; the figures are {}",
            names.join(", ")
        );
        std::process::exit(2);
    }

    println!("rpq paper-figure reproduction (scale: {scale:?})");
    println!("Huang, Bao, Davidson, Milo, Yuan — ICDE 2015\n");
    for (name, figure) in FIGURES {
        if figures.is_empty() || figures.iter().any(|f| f == name) {
            println!("{}", figure(scale).render());
        }
    }
}
