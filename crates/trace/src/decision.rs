//! Stable decision anchors.
//!
//! Every pack/supernode/gather/bail decision the vectorizer makes gets a
//! [`DecisionId`] minted at the seed site. The same id is stamped onto the
//! remark, the profiler span covering the decision, the DOT dump of the
//! graph it produced and the per-graph cost entry on the function report,
//! so downstream tooling (`snslp-bench report`) can join the five observability
//! layers without fuzzy text matching.
//!
//! The id is built only from stable coordinates — function name, block
//! label, the per-function seed ordinal and the seed instruction's stable
//! index — so golden streams survive unrelated value renumbering and the
//! id round-trips through text artifacts via [`DecisionId::parse`].

use std::fmt;

/// Anchor identifying one vectorization decision: one seed bundle
/// considered in one function.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DecisionId {
    /// Function name, without the `@` sigil.
    pub function: String,
    /// Basic-block label the seed lives in.
    pub block: String,
    /// Seed ordinal within the function, in pass consideration order.
    pub ordinal: u32,
    /// Stable instruction index of the seed root (survives renaming).
    pub inst: u32,
}

impl DecisionId {
    pub fn new(function: &str, block: &str, ordinal: u32, inst: u32) -> Self {
        DecisionId {
            function: function.to_string(),
            block: block.to_string(),
            ordinal,
            inst,
        }
    }

    /// The canonical text form: `@fn/block/s<ordinal>#i<inst>`. Asserted
    /// verbatim by golden streams; parsed back by the report reader.
    pub fn render(&self) -> String {
        format!(
            "@{}/{}/s{}#i{}",
            self.function, self.block, self.ordinal, self.inst
        )
    }

    /// Parse the canonical text form produced by [`DecisionId::render`].
    pub fn parse(text: &str) -> Result<DecisionId, String> {
        let err = || format!("malformed decision id `{text}` (expected `@fn/block/sN#iM`)");
        let rest = text.strip_prefix('@').ok_or_else(err)?;
        // Split from the right: the suffix and block label never contain
        // `/`, so the last two segments are unambiguous even if the
        // function name ever does.
        let (head, tail) = rest.rsplit_once('/').ok_or_else(err)?;
        let (function, block) = head.rsplit_once('/').ok_or_else(err)?;
        if function.is_empty() || block.is_empty() {
            return Err(err());
        }
        let tail = tail.strip_prefix('s').ok_or_else(err)?;
        let (ordinal, inst) = tail.split_once("#i").ok_or_else(err)?;
        let ordinal = ordinal.parse::<u32>().map_err(|_| err())?;
        let inst = inst.parse::<u32>().map_err(|_| err())?;
        Ok(DecisionId::new(function, block, ordinal, inst))
    }
}

impl fmt::Display for DecisionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_canonically() {
        let id = DecisionId::new("fig3", "entry", 0, 18);
        assert_eq!(id.render(), "@fig3/entry/s0#i18");
        assert_eq!(id.to_string(), id.render());
    }

    #[test]
    fn parse_round_trips() {
        for id in [
            DecisionId::new("fig3", "entry", 0, 18),
            DecisionId::new("povray_shade", "loop.body", 7, 0),
            DecisionId::new("a", "b", u32::MAX, u32::MAX),
        ] {
            assert_eq!(DecisionId::parse(&id.render()).as_ref(), Ok(&id));
        }
    }

    #[test]
    fn parse_rejects_malformed_ids() {
        for bad in [
            "",
            "fig3/entry/s0#i1",
            "@fig3",
            "@fig3/entry",
            "@fig3/entry/0#i1",
            "@fig3/entry/s0",
            "@fig3/entry/s0#ix",
            "@fig3/entry/sx#i1",
        ] {
            assert!(DecisionId::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let a = DecisionId::new("f", "entry", 0, 3);
        let b = DecisionId::new("f", "entry", 1, 9);
        assert!(a < b);
        let set: std::collections::HashSet<_> = [a.clone(), b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
