//! Structural analyses on IMCs: Zenoness (interactive cycles), deadlock
//! queries and DOT export.
//!
//! Under the closed-system view, interactive transitions happen in zero
//! time; a cycle of interactive transitions therefore lets infinitely many
//! actions happen instantaneously ("Zeno behaviour"). The uIMC → uCTMDP
//! transformation requires Zeno-freeness, checked here.

use std::fmt::Write as _;

use crate::model::Imc;

/// Searches for a cycle in the interactive-transition graph.
///
/// Returns a witness cycle (a sequence of states `s₀, …, s_k` with
/// interactive transitions between the consecutive states and from `s_k`
/// back to `s₀`) or `None` if the model is Zeno-free.
///
/// # Examples
///
/// ```
/// use unicon_imc::{analysis, ImcBuilder};
///
/// let mut b = ImcBuilder::new(2, 0);
/// b.interactive("a", 0, 1);
/// b.interactive("b", 1, 0);
/// assert!(analysis::interactive_cycle(&b.build()).is_some());
/// ```
pub fn interactive_cycle(imc: &Imc) -> Option<Vec<u32>> {
    // Iterative DFS with colors: 0 = white, 1 = on stack, 2 = done.
    let n = imc.num_states();
    let mut color = vec![0u8; n];
    let mut parent = vec![u32::MAX; n];
    for root in 0..n as u32 {
        if color[root as usize] != 0 {
            continue;
        }
        // stack of (state, next transition index)
        let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
        color[root as usize] = 1;
        while let Some(&mut (s, ref mut idx)) = stack.last_mut() {
            let trans = imc.interactive_from(s);
            if *idx < trans.len() {
                let t = trans[*idx].target;
                *idx += 1;
                match color[t as usize] {
                    0 => {
                        color[t as usize] = 1;
                        parent[t as usize] = s;
                        stack.push((t, 0));
                    }
                    1 => {
                        // found a cycle t -> ... -> s -> t
                        let mut cycle = vec![s];
                        let mut cur = s;
                        while cur != t {
                            cur = parent[cur as usize];
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                color[s as usize] = 2;
                stack.pop();
            }
        }
    }
    None
}

/// Whether the model is free of interactive cycles (no Zeno behaviour under
/// the closed view).
pub fn is_zeno_free(imc: &Imc) -> bool {
    interactive_cycle(imc).is_none()
}

/// States with no outgoing transitions at all (the paper's `S_A`).
pub fn absorbing_states(imc: &Imc) -> Vec<u32> {
    (0..imc.num_states() as u32)
        .filter(|&s| imc.interactive_from(s).is_empty() && imc.markov_from(s).is_empty())
        .collect()
}

/// Renders an IMC as GraphViz DOT: the initial state as a bold circle,
/// solid edges for interactive transitions, dashed edges for Markov
/// transitions (mirroring the paper's `-->` vs `--->` notation).
pub fn to_dot(imc: &Imc, name: &str) -> String {
    let mut out = String::new();
    writeln!(out, "digraph \"{name}\" {{").expect("writing to a String cannot fail");
    writeln!(out, "  rankdir=LR;").expect("writing to a String cannot fail");
    writeln!(out, "  {} [shape=circle, style=bold];", imc.initial())
        .expect("writing to a String cannot fail");
    for t in imc.interactive() {
        writeln!(
            out,
            "  {} -> {} [label=\"{}\"];",
            t.source,
            t.target,
            imc.actions().name(t.action)
        )
        .expect("writing to a String cannot fail");
    }
    for m in imc.markov() {
        writeln!(
            out,
            "  {} -> {} [label=\"{}\", style=dashed];",
            m.source, m.target, m.rate
        )
        .expect("writing to a String cannot fail");
    }
    writeln!(out, "}}").expect("writing to a String cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ImcBuilder;

    #[test]
    fn acyclic_is_zeno_free() {
        let mut b = ImcBuilder::new(3, 0);
        b.interactive("a", 0, 1);
        b.interactive("b", 1, 2);
        b.markov(2, 1.0, 0); // markov closes the loop: still zeno-free
        let m = b.build();
        assert!(is_zeno_free(&m));
        assert_eq!(interactive_cycle(&m), None);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut b = ImcBuilder::new(1, 0);
        b.interactive("a", 0, 0);
        let c = interactive_cycle(&b.build()).expect("cycle");
        assert_eq!(c, vec![0]);
    }

    #[test]
    fn two_state_cycle_witness() {
        let mut b = ImcBuilder::new(3, 0);
        b.interactive("go", 0, 1);
        b.interactive("a", 1, 2);
        b.interactive("b", 2, 1);
        let c = interactive_cycle(&b.build()).expect("cycle");
        assert_eq!(c.len(), 2);
        assert!(c.contains(&1) && c.contains(&2));
    }

    #[test]
    fn absorbing_detection() {
        let mut b = ImcBuilder::new(3, 0);
        b.interactive("a", 0, 1);
        b.markov(1, 1.0, 2);
        let m = b.build();
        assert_eq!(absorbing_states(&m), vec![2]);
    }

    #[test]
    fn dot_contains_both_edge_styles() {
        let mut b = ImcBuilder::new(2, 0);
        b.interactive("act", 0, 1);
        b.markov(1, 2.5, 0);
        let d = to_dot(&b.build(), "m");
        assert!(d.contains("  0 [shape=circle, style=bold];"));
        assert!(d.contains("label=\"act\""));
        assert!(d.contains("style=dashed"));
        assert!(d.contains("2.5"));
    }
}
