//! Symbolic regular sections: affine expressions over named symbols.
//!
//! The compiler cannot know `num_interactions` or the per-processor loop
//! bounds at compile time, so the sections it attaches to `Validate` calls
//! are symbolic — e.g. `interaction_list[1:2, my_lo:my_hi]` where `my_lo`,
//! `my_hi` come from the iteration partition. At run time each processor
//! binds the symbols ([`Env`]) and evaluates to a concrete [`Rsd`].

use std::collections::BTreeMap;
use std::fmt;

use crate::{Dim, Rsd};

/// An interned symbol (loop bound, program parameter, processor rank...).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub String);

impl Sym {
    pub fn new(name: impl Into<String>) -> Self {
        Sym(name.into())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// `Σ coeff·sym + constant` with integer coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Affine {
    /// Sorted by symbol for canonical form; zero coefficients removed.
    pub terms: BTreeMap<Sym, i64>,
    pub constant: i64,
}

impl Affine {
    pub fn constant(c: i64) -> Self {
        Affine {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    pub fn sym(s: impl Into<String>) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(Sym::new(s), 1);
        Affine { terms, constant: 0 }
    }

    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    pub fn add(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.constant += other.constant;
        for (s, c) in &other.terms {
            let e = out.terms.entry(s.clone()).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(s);
            }
        }
        out
    }

    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    pub fn scale(&self, k: i64) -> Affine {
        if k == 0 {
            return Affine::constant(0);
        }
        Affine {
            terms: self.terms.iter().map(|(s, c)| (s.clone(), c * k)).collect(),
            constant: self.constant * k,
        }
    }

    pub fn offset(&self, k: i64) -> Affine {
        let mut out = self.clone();
        out.constant += k;
        out
    }

    /// Evaluate under `env`; `None` if a symbol is unbound.
    pub fn eval(&self, env: &Env) -> Option<i64> {
        let mut v = self.constant;
        for (s, c) in &self.terms {
            v += c * env.get(s)?;
        }
        Some(v)
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (s, c) in &self.terms {
            if first {
                match *c {
                    1 => write!(f, "{s}")?,
                    -1 => write!(f, "-{s}")?,
                    c => write!(f, "{c}*{s}")?,
                }
                first = false;
            } else if *c >= 0 {
                if *c == 1 {
                    write!(f, " + {s}")?;
                } else {
                    write!(f, " + {c}*{s}")?;
                }
            } else if *c == -1 {
                write!(f, " - {s}")?;
            } else {
                write!(f, " - {}*{s}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

/// Symbol bindings for evaluation.
#[derive(Debug, Clone, Default)]
pub struct Env {
    vals: BTreeMap<Sym, i64>,
}

impl Env {
    pub fn new() -> Self {
        Env::default()
    }

    pub fn bind(mut self, name: impl Into<String>, v: i64) -> Self {
        self.vals.insert(Sym::new(name), v);
        self
    }

    pub fn get(&self, s: &Sym) -> Option<i64> {
        self.vals.get(s).copied()
    }
}

/// A symbolic dimension `lo : hi : stride` (stride is always literal —
/// regular section analysis only produces constant strides).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymDim {
    pub lo: Affine,
    pub hi: Affine,
    pub stride: i64,
}

impl SymDim {
    pub fn dense(lo: Affine, hi: Affine) -> Self {
        SymDim { lo, hi, stride: 1 }
    }

    pub fn eval(&self, env: &Env) -> Option<Dim> {
        Some(Dim::new(
            self.lo.eval(env)?,
            self.hi.eval(env)?,
            self.stride,
        ))
    }
}

impl fmt::Display for SymDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.lo, self.hi)?;
        if self.stride != 1 {
            write!(f, ":{}", self.stride)?;
        }
        Ok(())
    }
}

/// A symbolic regular section descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymRsd {
    pub dims: Vec<SymDim>,
}

impl SymRsd {
    pub fn new(dims: Vec<SymDim>) -> Self {
        SymRsd { dims }
    }

    pub fn eval(&self, env: &Env) -> Option<Rsd> {
        self.dims
            .iter()
            .map(|d| d.eval(env))
            .collect::<Option<Vec<_>>>()
            .map(Rsd::new)
    }
}

impl fmt::Display for SymRsd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", d)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_algebra() {
        let a = Affine::sym("n").scale(2).offset(3); // 2n + 3
        let b = Affine::sym("n").add(&Affine::sym("m")); // n + m
        let c = a.sub(&b); // n - m + 3
        let env = Env::new().bind("n", 10).bind("m", 4);
        assert_eq!(a.eval(&env), Some(23));
        assert_eq!(c.eval(&env), Some(9));
    }

    #[test]
    fn zero_coefficients_cancel() {
        let a = Affine::sym("k").sub(&Affine::sym("k"));
        assert!(a.is_constant());
        assert_eq!(a.eval(&Env::new()), Some(0));
    }

    #[test]
    fn unbound_symbol_fails() {
        let a = Affine::sym("unknown");
        assert_eq!(a.eval(&Env::new()), None);
    }

    #[test]
    fn sym_rsd_eval() {
        // interaction_list[1:2, lo_p:hi_p]
        let r = SymRsd::new(vec![
            SymDim::dense(Affine::constant(1), Affine::constant(2)),
            SymDim::dense(Affine::sym("lo_p"), Affine::sym("hi_p")),
        ]);
        let env = Env::new().bind("lo_p", 1).bind("hi_p", 100);
        let c = r.eval(&env).unwrap();
        assert_eq!(c.len(), 200);
        assert_eq!(r.eval(&Env::new().bind("lo_p", 1)), None);
    }

    #[test]
    fn display_forms() {
        let a = Affine::sym("n").scale(2).offset(-1);
        assert_eq!(a.to_string(), "2*n - 1");
        assert_eq!(Affine::constant(7).to_string(), "7");
        let d = SymDim {
            lo: Affine::constant(1),
            hi: Affine::sym("n"),
            stride: 2,
        };
        assert_eq!(d.to_string(), "1:n:2");
    }
}
