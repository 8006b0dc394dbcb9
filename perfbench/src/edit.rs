//! Seeded one-function edits of a printed program, the way a developer
//! edit lands in an `.mcir` file: one table-mask constant
//! (`vN = iconst 2^k - 1` feeding an `and`) in one function is lowered.
//! A lower mask keeps every table access in bounds, so the edited
//! program still verifies and executes, and only that function's
//! content changes.

use mcpart_rng::{Rng, SeedableRng, SliceRandom, SmallRng};

/// One edit: replace the digits at `at..at + len` (the constant `old`
/// inside function `func`) with `new`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edit {
    /// Function the edit lands in.
    pub func: String,
    /// Byte offset of the constant's digits in the printed text.
    pub at: usize,
    /// Length of the constant's digits.
    pub len: usize,
    /// The constant before the edit.
    pub old: i64,
    /// The constant after the edit (`1..old`).
    pub new: i64,
}

impl Edit {
    /// The edited text.
    pub fn apply(&self, text: &str) -> String {
        format!("{}{}{}", &text[..self.at], self.new, &text[self.at + self.len..])
    }
}

/// Every table-mask constant of the printed program:
/// (function, digit offset, digit length, value).
pub fn mask_sites(text: &str) -> Vec<(String, usize, usize, i64)> {
    let mut sites = Vec::new();
    let mut func = String::new();
    let mut offset = 0;
    let mut lines = text.split_inclusive('\n').peekable();
    while let Some(line) = lines.next() {
        let start = offset;
        offset += line.len();
        if let Some(rest) = line.strip_prefix("func ") {
            func = rest.split('(').next().unwrap_or(rest).to_string();
            continue;
        }
        let Some((reg, k, digits_at, digits_len)) = mask_const(line) else { continue };
        // Only a constant consumed by the next line's `and` is a mask.
        let feeds_and = lines.peek().is_some_and(|next| {
            next.contains(" = and ") && next.trim_end().ends_with(&format!(", {reg}"))
        });
        if feeds_and && !func.is_empty() {
            sites.push((func.clone(), start + digits_at, digits_len, k));
        }
    }
    sites
}

/// Parses `  opN: vK = iconst M` with `M = 2^k - 1` in `63..=511`:
/// (register, M, digit offset within the line, digit length).
fn mask_const(line: &str) -> Option<(&str, i64, usize, usize)> {
    let (_, rhs) = line.split_once(": ")?;
    let (reg, value) = rhs.split_once(" = iconst ")?;
    let digits = value.trim_end();
    let k: i64 = digits.parse().ok()?;
    if !(63..=511).contains(&k) || (k + 1) & k != 0 {
        return None;
    }
    let at = line.len() - value.len();
    Some((reg, k, at, digits.len()))
}

/// `count` distinct edits drawn from `seed`: distinct mask sites (so
/// distinct functions' or constants' content), each lowered to a value
/// in `old/2..old`.
///
/// # Panics
///
/// Panics if the program has fewer than `count` mask sites.
pub fn generate(text: &str, count: usize, seed: u64) -> Vec<Edit> {
    let mut sites = mask_sites(text);
    assert!(sites.len() >= count, "{} mask sites, {count} edits wanted", sites.len());
    let mut rng = SmallRng::seed_from_u64(seed);
    sites.shuffle(&mut rng);
    sites
        .into_iter()
        .take(count)
        .map(|(func, at, len, old)| {
            let new = rng.gen_range(old / 2..old);
            Edit { func, at, len, old, new }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_ir::{parse_program, program_to_string, verify_program};

    fn synth_text(ops: usize, seed: u64) -> String {
        let mut spec = mcpart_workloads::SynthSpec::with_target_ops(ops);
        spec.seed = seed;
        program_to_string(&spec.generate("synth").program)
    }

    #[test]
    fn edits_are_distinct_one_function_changes_that_verify_and_execute() {
        let text = synth_text(3_000, 11);
        let base = parse_program(&text).expect("baseline parses");
        let edits = generate(&text, 12, 5);
        assert_eq!(edits.len(), 12);
        let mut seen = std::collections::HashSet::new();
        for e in &edits {
            assert!(e.new >= 1 && e.new < e.old, "{e:?}");
            let edited = e.apply(&text);
            assert_ne!(edited, text);
            assert!(seen.insert(edited.clone()), "duplicate edit {e:?}");
            let p = parse_program(&edited).expect("edited text parses");
            verify_program(&p).expect("edited program verifies");
            mcpart_sim::profile_run(&p, &[], mcpart_sim::ExecConfig::default())
                .expect("edited program executes");
            // Exactly one function's printed body differs.
            let changed: Vec<_> = base
                .functions
                .values()
                .zip(p.functions.values())
                .filter(|(a, b)| {
                    mcpart_ir::function_to_string(a) != mcpart_ir::function_to_string(b)
                })
                .map(|(a, _)| a.name.clone())
                .collect();
            assert_eq!(changed, vec![e.func.clone()], "{e:?}");
        }
    }

    #[test]
    fn the_seed_alone_picks_the_edits() {
        let text = synth_text(3_000, 11);
        assert_eq!(generate(&text, 6, 9), generate(&text, 6, 9));
        assert_ne!(generate(&text, 6, 9), generate(&text, 6, 10));
    }

    #[test]
    fn only_constants_feeding_an_and_are_sites() {
        let text = "func f(v0) {\nbb0 (entry):\n  op0: v1 = iconst 63\n  op1: v2 = and v0, v1\n  \
                    op2: v3 = iconst 127\n  op3: v4 = add v0, v3\n}\n";
        let sites = mask_sites(text);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].0, "f");
        assert_eq!(&text[sites[0].1..sites[0].1 + sites[0].2], "63");
    }
}
