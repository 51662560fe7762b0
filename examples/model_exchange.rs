//! Model exchange: build a uniform IMC compositionally, serialize it in the
//! CADP-compatible extended Aldebaran format, reload it, and verify that
//! the analysis results survive the round trip. The written file can also
//! be fed to the `unicon` CLI (`unicon reach <file> --goal … --time-bounds …`).
//!
//! Run with `cargo run --release --example model_exchange`.

use unicon::core::{ClosedModel, PreparedModel, UniformImc};
use unicon::ctmc::PhaseType;
use unicon::imc::io;
use unicon::lts::LtsBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny redundant pair: two machines, one shared repair crew.
    let mut b = LtsBuilder::new(4, 0);
    b.add("fail_a", 0, 1);
    b.add("repair_a", 1, 0);
    b.add("fail_b", 0, 2);
    b.add("repair_b", 2, 0);
    b.add("fail_b", 1, 3); // both down
    b.add("fail_a", 2, 3);
    b.add("repair_a", 3, 2);
    b.add("repair_b", 3, 1);
    let plant = UniformImc::from_lts(&b.build());

    let mut constraints: Option<UniformImc> = None;
    for (fail, repair, rate) in [("fail_a", "repair_a", 0.05), ("fail_b", "repair_b", 0.08)] {
        let tc_fail = UniformImc::from_elapse(
            &PhaseType::exponential(rate).uniformize_at_max(),
            fail,
            repair,
        );
        let tc_repair = UniformImc::from_elapse(
            &PhaseType::exponential(1.0).uniformize_at_max(),
            repair,
            fail,
        );
        let pair = tc_fail.compose(&tc_repair);
        constraints = Some(match constraints {
            None => pair,
            Some(acc) => acc.compose(&pair),
        });
    }
    // Track which plant state each product state contains: under urgency a
    // completed repair fires instantly, so "offers both repair actions"
    // would never dwell — the right goal is the plant component being in
    // its both-down state 3.
    let (system, map) = constraints
        .expect("two constraint pairs")
        .compose_with_map(&plant);
    println!(
        "built: {} states, uniform rate {:.3}",
        system.imc().num_states(),
        system.rate()
    );

    // Serialize and reload.
    let text = io::to_aut(system.imc());
    let path = std::env::temp_dir().join("unicon_model_exchange.aut");
    std::fs::write(&path, &text)?;
    println!("wrote {} ({} bytes)", path.display(), text.len());
    let reloaded = io::from_aut(&std::fs::read_to_string(&path)?)?;
    assert_eq!(reloaded.num_states(), system.imc().num_states());
    assert_eq!(reloaded.num_markov(), system.imc().num_markov());

    // Goal: both machines down — plant component state 3. The goal vector
    // survives the round trip because the AUT format preserves state
    // numbering.
    let goal: Vec<bool> = map
        .iter()
        .map(|&(_, plant_state)| plant_state == 3)
        .collect();

    let t = 50.0;
    let p_original =
        PreparedModel::new(&system.close(), &goal)?.worst_case_from_initial(t, 1e-9)?;
    let reloaded_model = ClosedModel::try_new(reloaded.clone())?;
    let p_reloaded =
        PreparedModel::new(&reloaded_model, &goal)?.worst_case_from_initial(t, 1e-9)?;
    println!(
        "worst-case P(both machines down within {t} h): original {p_original:.9e}, \
         reloaded {p_reloaded:.9e}"
    );
    assert!((p_original - p_reloaded).abs() < 1e-12);
    println!("round trip preserves the analysis exactly ✓");
    println!(
        "try: unicon reach {} --goal <ids> --time-bounds {t}",
        path.display()
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
