//! Reproduces the qualitative content of the paper's Figure 4: the classic
//! CTMC treatment of the FTWC — which resolves the repair-unit assignment
//! with high-rate probabilistic choices — consistently *overestimates* the
//! worst-case probability computed from the faithful nondeterministic
//! model.
//!
//! Run with `cargo run --release --example ctmc_vs_ctmdp -- [N] [GAMMA]`.

use unicon::ftwc::{experiment, FtwcParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse())
        .transpose()?
        .unwrap_or(2);
    let gamma: f64 = std::env::args()
        .nth(2)
        .map(|a| a.parse())
        .transpose()?
        .unwrap_or(100.0);

    let mut params = FtwcParams::new(n);
    params.gamma = gamma;
    println!("FTWC N = {n}, CTMC decision rate Γ = {gamma}");
    println!("computing P(premium service lost within t) both ways…\n");

    let times = [10.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2000.0];
    let points = experiment::figure4(&params, &times, 1e-9)?;

    println!("   t (h)      CTMDP (worst case)        CTMC (Γ-resolved)      CTMC − CTMDP");
    for p in &points {
        println!(
            "  {:6.0}      {:>18.9e}      {:>18.9e}      {:>+12.3e}",
            p.t,
            p.ctmdp_worst,
            p.ctmc,
            p.ctmc - p.ctmdp_worst
        );
    }

    let all_over = points.iter().all(|p| p.ctmc >= p.ctmdp_worst);
    println!(
        "\nThe CTMC {} the worst case at every horizon — the paper's Figure 4 finding.\n\
         (The overestimation stems from artificial races between the rate-Γ\n\
         assignment transitions and ordinary failure rates: broken components\n\
         sit unattended for Exp(Γ) windows that the faithful urgent\n\
         interpretation does not have. The gap shrinks as Γ grows, but never\n\
         changes sign.)",
        if all_over {
            "overestimates"
        } else {
            "UNDER-estimates (unexpected!)"
        }
    );
    Ok(())
}
