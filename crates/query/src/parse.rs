//! Minimal Cypher-ish text parser for the supported query fragment.
//!
//! Grammar (whitespace-insensitive, keywords case-insensitive):
//!
//! ```text
//! query  := MATCH node (edge node)* (WHERE cond (AND cond)*)? RETURN ret
//! node   := '(' var (':' Label)* ')'
//! edge   := '-[' (':' Label)? ']->'          outgoing
//!         | '<-[' (':' Label)? ']-'          incoming
//!         | '-[' (':' Label)? ']-'           any orientation
//! cond   := var '.' Prop op uint             op ∈ { > >= < <= = <> }
//!         | 'id(' var ')' '=' uint           root only
//! ret    := 'count(' DISTINCT? var ')'
//!         | 'sum(' var '.' Prop ')'
//!         | 'collect(' var ')'
//! ```
//!
//! Label and property names are resolved against a [`MetaSnapshot`]
//! replica (`GDI_GetLabelFromName` / `GDI_GetPropertyTypeFromName`), so
//! the same text works on any rank. A final node that repeats the root
//! variable (with no labels) turns the last expansion into a
//! cycle-closing step, e.g. `(a)-[:knows]->(b)-[:knows]->(a)`.

use gda::MetaSnapshot;
use gdi::{AppVertexId, CmpOp, EdgeOrientation, LabelId, PropertyValue};

use crate::ast::{AggTarget, Aggregate, Expand, NodePattern, Projection, PropFilter, Query};

/// Parse failure: a message and the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of what went wrong.
    pub msg: String,
    /// Byte offset into the input where the error was detected.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, pos: 0 }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            msg: msg.into(),
            at: self.pos,
        })
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.src.len() - trimmed.len();
    }

    /// Consume `lit` (exact, after whitespace); false if absent.
    fn eat(&mut self, lit: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Consume a keyword (case-insensitive, must not run into a word
    /// character); false if absent.
    fn eat_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = self.rest();
        if rest.len() >= kw.len() && rest[..kw.len()].eq_ignore_ascii_case(kw) {
            let boundary = rest[kw.len()..]
                .chars()
                .next()
                .map(|c| !c.is_alphanumeric() && c != '_')
                .unwrap_or(true);
            if boundary {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn expect(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.eat(lit) {
            Ok(())
        } else {
            self.err(format!("expected `{lit}`"))
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !c.is_alphanumeric() && *c != '_')
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return self.err("expected an identifier");
        }
        self.pos += end;
        Ok(&rest[..end])
    }

    fn uint(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !c.is_ascii_digit())
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return self.err("expected an unsigned integer");
        }
        let n = rest[..end].parse::<u64>().map_err(|e| ParseError {
            msg: format!("integer literal: {e}"),
            at: self.pos,
        })?;
        self.pos += end;
        Ok(n)
    }
}

fn resolve_label(meta: &MetaSnapshot, name: &str, at: usize) -> Result<LabelId, ParseError> {
    meta.label_from_name(name).ok_or_else(|| ParseError {
        msg: format!("unknown label `{name}`"),
        at,
    })
}

fn parse_node(c: &mut Cursor, meta: &MetaSnapshot) -> Result<NodePattern, ParseError> {
    c.expect("(")?;
    let var = c.ident()?.to_string();
    let mut pat = NodePattern::any(&var);
    while c.eat(":") {
        let at = c.pos;
        let name = c.ident()?;
        pat.labels.push(resolve_label(meta, name, at)?);
    }
    c.expect(")")?;
    Ok(pat)
}

/// `(orientation, edge label)` of one edge spec, or `None` when the next
/// token does not start an edge.
fn parse_edge(
    c: &mut Cursor,
    meta: &MetaSnapshot,
) -> Result<Option<(EdgeOrientation, Option<LabelId>)>, ParseError> {
    let incoming = c.eat("<-[");
    if !incoming && !c.eat("-[") {
        return Ok(None);
    }
    let label = if c.eat(":") {
        let at = c.pos;
        let name = c.ident()?;
        Some(resolve_label(meta, name, at)?)
    } else {
        None
    };
    if incoming {
        c.expect("]-")?;
        return Ok(Some((EdgeOrientation::Incoming, label)));
    }
    c.expect("]-")?;
    if c.eat(">") {
        Ok(Some((EdgeOrientation::Outgoing, label)))
    } else {
        Ok(Some((EdgeOrientation::Any, label)))
    }
}

fn parse_cmp(c: &mut Cursor) -> Result<CmpOp, ParseError> {
    // two-char forms first
    for (lit, op) in [
        (">=", CmpOp::Ge),
        ("<=", CmpOp::Le),
        ("<>", CmpOp::Ne),
        (">", CmpOp::Gt),
        ("<", CmpOp::Lt),
        ("=", CmpOp::Eq),
    ] {
        if c.eat(lit) {
            return Ok(op);
        }
    }
    c.err("expected a comparison operator (> >= < <= = <>)")
}

/// Parse `text` into a [`Query`], resolving label and property-type
/// names against `meta`.
pub fn parse(text: &str, meta: &MetaSnapshot) -> Result<Query, ParseError> {
    let mut c = Cursor::new(text);
    if !c.eat_kw("MATCH") {
        return c.err("expected `MATCH`");
    }
    let root = parse_node(&mut c, meta)?;
    let mut expands: Vec<Expand> = Vec::new();
    while let Some((orient, edge_label)) = parse_edge(&mut c, meta)? {
        let target = parse_node(&mut c, meta)?;
        if target.var == root.var {
            if !target.labels.is_empty() {
                return c.err("a cycle-closing node repeats the root variable with no labels");
            }
            expands.push(Expand {
                orient,
                edge_label,
                target: NodePattern::default(),
                close_to_root: true,
            });
            break; // the chain must end at the closed cycle
        }
        expands.push(Expand {
            orient,
            edge_label,
            target,
            close_to_root: false,
        });
    }

    // variable table: root + non-closing targets, for WHERE/RETURN lookup
    let find_pat = |root: &mut NodePattern, expands: &mut Vec<Expand>, var: &str| {
        if root.var == var {
            return Some(0usize); // 0 = root, i+1 = expands[i]
        }
        expands
            .iter()
            .position(|e| !e.close_to_root && e.target.var == var)
            .map(|i| i + 1)
    };

    let mut root = root;
    if c.eat_kw("WHERE") {
        loop {
            c.skip_ws();
            let at = c.pos;
            if c.eat_kw("id") {
                c.expect("(")?;
                let var = c.ident()?.to_string();
                c.expect(")")?;
                c.expect("=")?;
                let id = c.uint()?;
                if var != root.var {
                    return Err(ParseError {
                        msg: format!("id() equality is only supported on the root (`{var}`)"),
                        at,
                    });
                }
                root.app_id = Some(AppVertexId(id));
            } else {
                let var = c.ident()?.to_string();
                c.expect(".")?;
                let pat = c.pos;
                let pname = c.ident()?.to_string();
                let ptype = meta.ptype_from_name(&pname).ok_or_else(|| ParseError {
                    msg: format!("unknown property type `{pname}`"),
                    at: pat,
                })?;
                let op = parse_cmp(&mut c)?;
                let v = c.uint()?;
                let Some(slot) = find_pat(&mut root, &mut expands, &var) else {
                    return Err(ParseError {
                        msg: format!("unbound variable `{var}`"),
                        at,
                    });
                };
                let filter = PropFilter {
                    ptype,
                    op,
                    value: PropertyValue::U64(v),
                };
                if slot == 0 {
                    root.props.push(filter);
                } else {
                    expands[slot - 1].target.props.push(filter);
                }
            }
            if !c.eat_kw("AND") {
                break;
            }
        }
    }

    if !c.eat_kw("RETURN") {
        return c.err("expected `RETURN`");
    }
    c.skip_ws();
    let at = c.pos;
    let func = c.ident()?.to_ascii_lowercase();
    c.expect("(")?;
    let (var, agg) = match func.as_str() {
        "count" => {
            c.eat_kw("DISTINCT");
            (c.ident()?.to_string(), Aggregate::Count)
        }
        "sum" => {
            let var = c.ident()?.to_string();
            c.expect(".")?;
            let pat = c.pos;
            let pname = c.ident()?.to_string();
            let ptype = meta.ptype_from_name(&pname).ok_or_else(|| ParseError {
                msg: format!("unknown property type `{pname}`"),
                at: pat,
            })?;
            (var, Aggregate::Sum(ptype))
        }
        "collect" => (c.ident()?.to_string(), Aggregate::CollectIds),
        other => {
            return Err(ParseError {
                msg: format!("unknown aggregate `{other}` (count/sum/collect)"),
                at,
            })
        }
    };
    c.expect(")")?;

    let last_var = expands
        .iter()
        .rev()
        .find(|e| !e.close_to_root)
        .map(|e| e.target.var.as_str())
        .unwrap_or(root.var.as_str());
    let target = if var == root.var {
        AggTarget::Root
    } else if var == last_var {
        AggTarget::Last
    } else {
        return Err(ParseError {
            msg: format!("aggregate variable `{var}` must be the root or the last pattern node"),
            at,
        });
    };

    c.skip_ws();
    if !c.rest().is_empty() {
        return c.err("trailing input after RETURN clause");
    }

    Ok(Query {
        root,
        expands,
        returns: Projection { target, agg },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gda::{GdaConfig, GdaDb};
    use rma::CostModel;

    fn meta() -> MetaSnapshot {
        let (db, fabric) = GdaDb::with_fabric("parse", GdaConfig::tiny(), 1, CostModel::zero());
        let metas = fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            for l in ["person", "post", "knows", "likes"] {
                eng.create_label(l).unwrap();
            }
            for p in ["age", "score"] {
                eng.create_ptype(
                    p,
                    gdi::Datatype::Uint64,
                    gdi::EntityType::VertexEdge,
                    gdi::Multiplicity::Single,
                    gdi::SizeType::Fixed,
                    1,
                )
                .unwrap();
            }
            eng.refresh_meta();
            let snapshot = eng.meta().clone();
            snapshot
        });
        metas.into_iter().next().unwrap()
    }

    #[test]
    fn parses_bi2_shape() {
        let m = meta();
        let q = parse(
            "MATCH (p:person)-[:knows]->(c:post) WHERE p.age > 30 AND c.score >= 7 \
             RETURN count(DISTINCT p)",
            &m,
        )
        .unwrap();
        assert_eq!(q.root.labels, vec![m.label_from_name("person").unwrap()]);
        assert_eq!(q.expands.len(), 1);
        assert_eq!(
            q.expands[0].edge_label,
            Some(m.label_from_name("knows").unwrap())
        );
        assert_eq!(q.root.props.len(), 1);
        assert_eq!(q.expands[0].target.props.len(), 1);
        assert_eq!(q.returns.target, AggTarget::Root);
        assert_eq!(q.returns.agg, Aggregate::Count);
    }

    #[test]
    fn parses_point_lookup_and_orientations() {
        let m = meta();
        let q = parse(
            "MATCH (p)-[]-(n:person) WHERE id(p) = 42 RETURN collect(n)",
            &m,
        )
        .unwrap();
        assert_eq!(q.root.app_id, Some(AppVertexId(42)));
        assert_eq!(q.expands[0].orient, EdgeOrientation::Any);
        assert_eq!(q.returns.agg, Aggregate::CollectIds);
        assert_eq!(q.returns.target, AggTarget::Last);

        let q = parse("MATCH (a)<-[:likes]-(b) RETURN count(b)", &m).unwrap();
        assert_eq!(q.expands[0].orient, EdgeOrientation::Incoming);
    }

    #[test]
    fn parses_triangle_and_sum() {
        let m = meta();
        let q = parse(
            "MATCH (a:person)-[:knows]->(b)-[:knows]->(a) RETURN sum(a.age)",
            &m,
        )
        .unwrap();
        assert_eq!(q.expands.len(), 2);
        assert!(q.expands[1].close_to_root);
        assert_eq!(q.target_var(), "a");
        assert!(matches!(q.returns.agg, Aggregate::Sum(_)));
    }

    #[test]
    fn rejects_bad_input() {
        let m = meta();
        assert!(parse("MATCH (p:nosuch) RETURN count(p)", &m).is_err());
        assert!(parse("MATCH (p) RETURN count(q)", &m).is_err());
        assert!(parse(
            "MATCH (p)-[:knows]->(q) WHERE id(q) = 1 RETURN count(p)",
            &m
        )
        .is_err());
        assert!(parse("MATCH (p) RETURN count(p) garbage", &m).is_err());
        let e = parse("FETCH (p)", &m).unwrap_err();
        assert!(e.to_string().contains("MATCH"));
    }

    #[test]
    fn roundtrips_builder_display_shape() {
        let m = meta();
        let q = parse("MATCH (p:person) WHERE p.age <> 9 RETURN count(p)", &m).unwrap();
        assert!(q.display().starts_with("MATCH (p"));
        assert_eq!(q.root.props[0].op, CmpOp::Ne);
    }
}
