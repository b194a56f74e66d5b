//! Paper-style pseudocode pretty-printer for loop programs.
//!
//! Produces output in the notation of paper Figs. 1–4:
//!
//! ```text
//! S = 0
//! for b, c
//!   T1f = 0
//!   for d, f
//!     for e, l
//!       T1f[d,f] += B[b,e,f,l] * D[c,d,e,l]
//! ```
//!
//! Chains of directly-nested loops whose bodies contain nothing else are
//! collapsed onto one `for` line, as the paper does.

use crate::ir::{ARef, LoopProgram, Stmt, Sub};
use std::fmt::Write;

/// Render `program` as indented pseudocode.
pub fn pretty(program: &LoopProgram) -> String {
    let mut out = String::new();
    render_stmts(program, &program.body, 0, &mut out);
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_stmts(p: &LoopProgram, stmts: &[Stmt], depth: usize, out: &mut String) {
    for s in stmts {
        render_stmt(p, s, depth, out);
    }
}

fn render_stmt(p: &LoopProgram, s: &Stmt, depth: usize, out: &mut String) {
    match s {
        Stmt::Loop { var, body } => {
            // Collapse `for a { for b { … } }` chains where each level has
            // a single Loop child.
            let mut vars = vec![*var];
            let mut cur = body;
            loop {
                if cur.len() == 1 {
                    if let Stmt::Loop { var, body } = &cur[0] {
                        vars.push(*var);
                        cur = body;
                        continue;
                    }
                }
                break;
            }
            indent(out, depth);
            out.push_str("for ");
            for (i, v) in vars.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&p.var(*v).name);
            }
            out.push('\n');
            render_stmts(p, cur, depth + 1, out);
        }
        Stmt::Init { array } => {
            indent(out, depth);
            let _ = writeln!(out, "{} = 0", p.array(*array).name);
        }
        Stmt::Accum { lhs, rhs, coeff } => {
            indent(out, depth);
            out.push_str(&render_ref(p, lhs));
            out.push_str(" += ");
            if *coeff != 1.0 {
                let _ = write!(out, "{coeff} * ");
            }
            for (i, r) in rhs.iter().enumerate() {
                if i > 0 {
                    out.push_str(" * ");
                }
                out.push_str(&render_ref(p, r));
            }
            out.push('\n');
        }
        Stmt::Eval { lhs, func, args } => {
            indent(out, depth);
            let _ = write!(out, "{} = {}(", render_ref(p, lhs), p.func(*func).name);
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&render_sub(p, a));
            }
            out.push_str(")\n");
        }
    }
}

fn render_sub(p: &LoopProgram, s: &Sub) -> String {
    match *s {
        Sub::Var(v) => p.var(v).name.clone(),
        Sub::Tiled { tile, intra, block } => {
            format!("{}*{}+{}", p.var(tile).name, block, p.var(intra).name)
        }
    }
}

fn render_ref(p: &LoopProgram, r: &ARef) -> String {
    let name = &p.array(r.array).name;
    if r.subs.is_empty() {
        return name.clone();
    }
    let subs: Vec<String> = r.subs.iter().map(|s| render_sub(p, s)).collect();
    format!("{}[{}]", name, subs.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_ir::IndexSpace;

    #[test]
    fn prints_fig1b_shape() {
        // The direct program of Fig. 1(a)'s tree prints as three collapsed
        // nests.
        let (_, p) = crate::analysis::tests::fig1b(4);
        let text = pretty(&p);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "T1 = 0");
        assert_eq!(lines[1], "for b, c, d, e, f, l");
        assert_eq!(lines[2], "  T1[b,c,d,f] += B[b,e,f,l] * D[c,d,e,l]");
        assert_eq!(lines[3], "T2 = 0");
        assert_eq!(lines[4], "for b, c, d, f, j, k");
        assert_eq!(lines[5], "  T2[b,c,j,k] += T1[b,c,d,f] * C[d,f,j,k]");
        assert_eq!(lines[6], "S = 0");
        assert_eq!(lines[7], "for a, b, c, i, j, k");
        assert_eq!(lines[8], "  S[a,b,i,j] += T2[b,c,j,k] * A[a,c,i,k]");
    }

    #[test]
    fn prints_tiled_subscripts() {
        use crate::ir::*;
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 8);
        let a = space.add_var("a", n);
        let mut p = LoopProgram::new();
        let at = p.add_var("a_t", VarRange::Tile { index: a, block: 4 });
        let ai = p.add_var("a_i", VarRange::Intra { index: a, block: 4 });
        let arr = p.add_array("X", vec![VarRange::Full(a)], ArrayKind::Intermediate);
        let f = p.add_func("f1", 100);
        p.body.push(Stmt::Loop {
            var: at,
            body: vec![Stmt::Loop {
                var: ai,
                body: vec![Stmt::Eval {
                    lhs: ARef {
                        array: arr,
                        subs: vec![Sub::Tiled {
                            tile: at,
                            intra: ai,
                            block: 4,
                        }],
                    },
                    func: f,
                    args: vec![Sub::Tiled {
                        tile: at,
                        intra: ai,
                        block: 4,
                    }],
                }],
            }],
        });
        p.validate().unwrap();
        let text = pretty(&p);
        assert!(text.contains("for a_t, a_i"));
        assert!(text.contains("X[a_t*4+a_i] = f1(a_t*4+a_i)"));
    }
}
