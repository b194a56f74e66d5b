//! Semantic analysis: lower the raw AST to a validated [`tce_ir::Program`].

use crate::ast::*;
use crate::token::LangError;
use std::collections::HashMap;
use tce_ir::{
    Assignment, Factor, FuncEval, IndexSet, IndexSpace, Product, Program, TensorDecl, TensorRef,
};

/// Lower a parsed source file to the IR, checking all references.
pub fn lower(file: &SourceFile) -> Result<Program, LangError> {
    let mut prog = Program::default();
    let mut funcs: HashMap<String, FuncDecl> = HashMap::new();

    for item in &file.items {
        match item {
            Item::Range(r) => {
                if prog.space.range_by_name(&r.name).is_some() {
                    return Err(LangError::at(
                        r.line,
                        1,
                        format!("range `{}` already declared", r.name),
                    ));
                }
                if r.extent == 0 {
                    return Err(LangError::at(
                        r.line,
                        1,
                        format!(
                            "range `{}` has extent 0; extents must be at least 1",
                            r.name
                        ),
                    ));
                }
                prog.space.add_range(&r.name, r.extent as usize);
            }
            Item::Index(d) => {
                let range = prog.space.range_by_name(&d.range).ok_or_else(|| {
                    LangError::at(d.line, 1, format!("unknown range `{}`", d.range))
                })?;
                for name in &d.names {
                    if prog.space.var_by_name(name).is_some() {
                        return Err(LangError::at(
                            d.line,
                            1,
                            format!("index `{name}` already declared"),
                        ));
                    }
                    if prog.space.num_vars() == IndexSet::MAX_VARS {
                        return Err(LangError::at(
                            d.line,
                            1,
                            format!(
                                "index `{name}` is one too many: a program declares at most {} indices",
                                IndexSet::MAX_VARS
                            ),
                        ));
                    }
                    prog.space.add_var(name, range);
                }
            }
            Item::Tensor(t) => {
                if prog.tensors.by_name(&t.name).is_some() {
                    return Err(LangError::at(
                        t.line,
                        1,
                        format!("tensor `{}` already declared", t.name),
                    ));
                }
                let dims = t
                    .dims
                    .iter()
                    .map(|d| {
                        prog.space
                            .range_by_name(d)
                            .ok_or_else(|| LangError::at(t.line, 1, format!("unknown range `{d}`")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                prog.tensors.add(TensorDecl::dense(&t.name, dims));
            }
            Item::Function(f) => {
                if funcs.contains_key(&f.name) {
                    return Err(LangError::at(
                        f.line,
                        1,
                        format!("function `{}` already declared", f.name),
                    ));
                }
                for arg in &f.args {
                    if prog.space.range_by_name(arg).is_none() {
                        return Err(LangError::at(f.line, 1, format!("unknown range `{arg}`")));
                    }
                }
                funcs.insert(f.name.clone(), f.clone());
            }
            Item::Stmt(s) => {
                let stmt = lower_stmt(s, &prog.space, &prog.tensors, &funcs)?;
                stmt.validate(&prog.space, &prog.tensors)
                    .map_err(|e| LangError::at(s.line, 1, e))?;
                prog.stmts.push(stmt);
            }
        }
    }
    Ok(prog)
}

fn lower_indices(
    names: &[String],
    space: &IndexSpace,
    line: u32,
) -> Result<Vec<tce_ir::IndexVar>, LangError> {
    names
        .iter()
        .map(|n| {
            space
                .var_by_name(n)
                .ok_or_else(|| LangError::at(line, 1, format!("unknown index `{n}`")))
        })
        .collect()
}

fn lower_stmt(
    s: &StmtAst,
    space: &IndexSpace,
    tensors: &tce_ir::TensorTable,
    funcs: &HashMap<String, FuncDecl>,
) -> Result<Assignment, LangError> {
    let lhs_tensor = tensors
        .by_name(&s.lhs)
        .ok_or_else(|| LangError::at(s.line, 1, format!("unknown tensor `{}`", s.lhs)))?;
    let lhs = TensorRef::new(lhs_tensor, lower_indices(&s.lhs_indices, space, s.line)?);
    let sum_indices = IndexSet::from_vars(lower_indices(&s.sum_indices, space, s.line)?);

    let mut terms = Vec::with_capacity(s.terms.len());
    for term in &s.terms {
        let mut factors = Vec::with_capacity(term.factors.len());
        for factor in &term.factors {
            match factor {
                FactorAst::Tensor { name, indices } => {
                    let id = tensors.by_name(name).ok_or_else(|| {
                        LangError::at(s.line, 1, format!("unknown tensor `{name}`"))
                    })?;
                    factors.push(Factor::Tensor(TensorRef::new(
                        id,
                        lower_indices(indices, space, s.line)?,
                    )));
                }
                FactorAst::Func { name, indices } => {
                    let decl = funcs.get(name).ok_or_else(|| {
                        LangError::at(s.line, 1, format!("unknown function `{name}`"))
                    })?;
                    let vars = lower_indices(indices, space, s.line)?;
                    if vars.len() != decl.args.len() {
                        return Err(LangError::at(
                            s.line,
                            1,
                            format!(
                                "function `{name}` takes {} arguments, called with {}",
                                decl.args.len(),
                                vars.len()
                            ),
                        ));
                    }
                    for (pos, (&v, arg)) in vars.iter().zip(&decl.args).enumerate() {
                        let expected = space.range_by_name(arg).expect("checked at declaration");
                        if space.range_of(v) != expected {
                            return Err(LangError::at(
                                s.line,
                                1,
                                format!(
                                    "argument {pos} of `{name}` expects range `{arg}`, got index `{}`",
                                    space.var_name(v)
                                ),
                            ));
                        }
                    }
                    factors.push(Factor::Func(FuncEval {
                        name: name.clone(),
                        indices: vars,
                        cost_per_eval: decl.cost,
                    }));
                }
            }
        }
        terms.push(Product {
            coeff: term.coeff,
            factors,
        });
    }

    Ok(Assignment {
        lhs,
        accumulate: s.accumulate,
        sum_indices,
        terms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile(src: &str) -> Result<Program, LangError> {
        lower(&parse(src)?)
    }

    const SECTION2: &str = "
        range N = 10;
        index a, b, c, d, e, f, i, j, k, l : N;
        tensor A(N, N, N, N);
        tensor B(N, N, N, N);
        tensor C(N, N, N, N);
        tensor D(N, N, N, N);
        tensor S(N, N, N, N);
        S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k] * B[b,e,f,l] * C[d,f,j,k] * D[c,d,e,l];
    ";

    #[test]
    fn lowers_section2_and_costs_match_paper() {
        let prog = compile(SECTION2).unwrap();
        prog.validate().unwrap();
        assert_eq!(prog.stmts.len(), 1);
        // Direct translation costs 4·N^10 (paper §2).
        assert_eq!(
            prog.stmts[0].direct_op_count(&prog.space),
            4 * 10u128.pow(10)
        );
        let text = format!("{}", prog.stmts[0].display(&prog.space, &prog.tensors));
        assert_eq!(
            text,
            "S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k]*B[b,e,f,l]*C[d,f,j,k]*D[c,d,e,l]"
        );
    }

    #[test]
    fn index_past_the_variable_limit_is_an_error_at_its_declaration() {
        let names = |n: usize| {
            (0..n)
                .map(|q| format!("i{q}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let at_limit = format!("range N = 2;\nindex {} : N;\n", names(IndexSet::MAX_VARS));
        assert_eq!(
            compile(&at_limit).unwrap().space.num_vars(),
            IndexSet::MAX_VARS
        );
        let past = format!(
            "range N = 2;\nindex {} : N;\n",
            names(IndexSet::MAX_VARS + 1)
        );
        let err = compile(&past).unwrap_err();
        assert_eq!(
            err.to_string(),
            "2:1: index `i64` is one too many: a program declares at most 64 indices"
        );
    }

    #[test]
    fn lowers_function_calls_with_cost() {
        let src = "
            range V = 8; range O = 4;
            index c, e, b1 : V; index k : O;
            tensor Y(V, V);
            function f1(V, V, V, O) cost 1000;
            Y[c,e] += sum[b1,k] f1(c, e, b1, k) * f1(c, e, b1, k);
        ";
        let prog = compile(src).unwrap();
        match &prog.stmts[0].terms[0].factors[0] {
            Factor::Func(f) => {
                assert_eq!(f.cost_per_eval, 1000);
                assert_eq!(f.indices.len(), 4);
            }
            other => panic!("expected func, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_names() {
        assert!(compile("index a : V;")
            .unwrap_err()
            .msg
            .contains("unknown range"));
        assert!(compile("range N = 2; tensor A(M);")
            .unwrap_err()
            .msg
            .contains("unknown range"));
        assert!(
            compile("range N = 2; index i : N; tensor A(N); B[i] = A[i];")
                .unwrap_err()
                .msg
                .contains("unknown tensor")
        );
        assert!(
            compile("range N = 2; index i : N; tensor A(N); A[i] = A[q];")
                .unwrap_err()
                .msg
                .contains("unknown index")
        );
        assert!(
            compile("range N = 2; index i : N; tensor A(N); A[i] = g(i);")
                .unwrap_err()
                .msg
                .contains("unknown function")
        );
    }

    #[test]
    fn rejects_duplicate_declarations() {
        assert!(compile("range N = 2; range N = 3;")
            .unwrap_err()
            .msg
            .contains("already declared"));
        assert!(compile("range N = 2; index i : N; index i : N;")
            .unwrap_err()
            .msg
            .contains("already declared"));
        assert!(compile("range N = 2; tensor A(N); tensor A(N);")
            .unwrap_err()
            .msg
            .contains("already declared"));
        assert!(
            compile("range N = 2; function f(N) cost 1; function f(N) cost 2;")
                .unwrap_err()
                .msg
                .contains("already declared")
        );
    }

    #[test]
    fn rejects_function_arity_and_range_mismatch() {
        let base = "range V = 4; range O = 2; index a : V; index i : O; tensor S(V); function f(V, O) cost 10;";
        let arity = format!("{base} S[a] = sum[i] f(a);");
        assert!(compile(&arity).unwrap_err().msg.contains("arguments"));
        let range = format!("{base} S[a] = sum[i] f(i, i);");
        assert!(compile(&range).unwrap_err().msg.contains("expects range"));
    }

    #[test]
    fn rejects_semantic_errors_via_ir_validation() {
        // Rank mismatch is caught by Assignment::validate.
        let src = "range N = 2; index i, j : N; tensor A(N, N); tensor S(N);
                   S[i] = A[i];";
        assert!(compile(src).unwrap_err().msg.contains("rank"));
        // Free variable.
        let src2 = "range N = 2; index i, j : N; tensor A(N, N); tensor S(N);
                    S[i] = A[i,j];";
        assert!(compile(src2).is_err());
    }

    #[test]
    fn multi_term_coefficients_survive_lowering() {
        let src = "
            range N = 3; index i, j, k : N;
            tensor A(N, N); tensor S(N, N);
            S[i,j] = sum[k] 2 * A[i,k] * A[k,j] - A[i,k] * A[k,j];
        ";
        let prog = compile(src).unwrap();
        assert_eq!(prog.stmts[0].terms[0].coeff, 2.0);
        assert_eq!(prog.stmts[0].terms[1].coeff, -1.0);
    }
}
