"""The function-field core shared by F_p(x) and Q(x).

A nonzero element of K(x) is kept factored: a constant times powers of
monic, squarefree, pairwise coprime polynomials (`squarefree_parts`, then
factor refinement), over F_p and Q alike, so one factor may hold several
places.
A place is a monic irreducible modulus, or the degree place at infinity of
F_p(x); a monic squarefree modulus on a `common_basis` of the entries
stands for all its irreducible factors at once.  The tame symbol of (f, g)
at a place is returned as (base, exponent) terms whose bases are units
there; `residue_support`, the residue step of both fields, reads their
`odd_tame_bases` at each basis element h from the entries' exponents of h,
and `funcfield_fp` decides their square class by the norm-Legendre character
at each place of h, `funcfield_q` by the certified square test in Q[x]/(h).
The polynomials carry the constant field; only their ring operations are used.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError
from .exact_arith import PolyFp, PolyQ, factor_key, poly_key, squarefree_parts
from .integers import is_prime

if TYPE_CHECKING:
    from .brauer_q import BrauerClassQ
    from .local_symbols import NumberFieldElem

MAX_CHAR = 2**31
MAX_DEGREE = 64  # entries of higher degree, over F_p or Q, are refused before factoring

Poly = PolyQ | PolyFp


class Place(NamedTuple):
    """A place of K(x): a monic irreducible polynomial, or None for the
    degree place at infinity of F_p(x).  The modulus may also be a monic
    squarefree h on the entries' common basis: every irreducible factor of
    h has the same valuations and tame terms, so one place h stands for all
    of them."""

    modulus: Poly | None

    def sort_key(self):
        return (1,) if self.modulus is None else (0, *poly_key(self.modulus))

    def __str__(self) -> str:
        return "inf" if self.modulus is None else str(self.modulus)


# Memoized here rather than in `is_prime`, which a certificate re-check must
# run afresh; a rejected p raises on every call, since errors are not cached.
@functools.lru_cache
def check_char(p: int) -> None:
    if p == 2:
        raise DomainError("characteristic 2 is unsupported")
    if p >= MAX_CHAR or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime below 2^31")


def _field(p: int) -> str:
    return f"F_{p}(x)" if p else "Q(x)"


class FactoredFunc(NamedTuple):
    """A nonzero element of K(x)^x: constant * prod(factor ** exponent).

    The constant is a polynomial of degree 0 in the factors' ring (PolyQ or
    PolyFp; `p` is its characteristic, 0 for Q), so products, inverses and
    tame terms are ring arithmetic.  The factors are monic, squarefree and
    pairwise coprime, with nonzero exponents, sorted by degree, then
    coefficients.  `from_poly`, products and inverses keep one factor per
    exponent, so that == compares functions; the finer factors of
    `common_basis` and `split_at` serve residues only.  `str` prints
    irreducible factors."""

    constant: Poly
    factors: tuple[tuple[Poly, int], ...]

    @property
    def p(self) -> int:
        return self.constant.p

    @staticmethod
    def from_poly(f: Poly, rng=None) -> "FactoredFunc":
        """`rng` is read by nothing; it stays for callers that still pass one."""
        if f.is_zero():
            raise DomainError(f"zero is not a unit of {_field(f.p)}")
        if f.p:
            check_char(f.p)
        if f.degree > MAX_DEGREE:
            raise DomainError(f"degree {f.degree} exceeds the {_field(f.p)} cap {MAX_DEGREE}")
        return FactoredFunc(f.scalar(f.lc()), tuple(sorted(squarefree_parts(f), key=factor_key)))

    @staticmethod
    def from_constant(c, p: int = 0) -> "FactoredFunc":
        return FactoredFunc.from_poly(PolyFp.const(p, c) if p else PolyQ.const(c))

    def __mul__(self, other: "FactoredFunc") -> "FactoredFunc":
        if self.p != other.p:
            raise DomainError("characteristic mismatch")
        # on a common basis equal factors are the only ones that merge
        a, b = common_basis(self, other)[1]
        exps = dict(a.factors)
        for f, m in b.factors:
            exps[f] = exps.get(f, 0) + m
        groups: dict[int, Poly] = {}
        for f, m in exps.items():
            if m:
                groups[m] = groups[m] * f if m in groups else f
        facs = tuple(sorted(((f, m) for m, f in groups.items()), key=factor_key))
        return FactoredFunc(self.constant * other.constant, facs)

    def inverse(self) -> "FactoredFunc":
        c = self.constant
        return FactoredFunc(c.scalar(1).divmod(c)[0], tuple((f, -m) for f, m in self.factors))

    def split_at(self, v: Place) -> tuple["FactoredFunc", int]:
        """(self with v's modulus split out of the factor it divides, v(self)).

        The modulus is irreducible or on a common basis with self.  A factor
        h that it divides properly becomes modulus * (h / modulus), both with
        h's exponent; at infinity nothing splits."""
        pi = v.modulus
        if pi is None:
            return self, -sum(f.degree * m for f, m in self.factors)
        for i, (f, m) in enumerate(self.factors):  # sorted: f == pi comes first
            if f == pi:
                return self, m
            if f.degree > pi.degree:
                q, r = f.divmod(pi)
                if r.is_zero():
                    facs = self.factors[:i] + ((pi, m), (q, m)) + self.factors[i + 1:]
                    return FactoredFunc(self.constant, tuple(sorted(facs, key=factor_key))), m
        return self, 0

    def valuation(self, v: Place) -> int:
        return self.split_at(v)[1]

    def value_at(self, alpha) -> Fraction | int:
        """Exact value at a point of K; the point must not be a zero or pole."""
        acc = self.constant.lc()
        for f, m in self.factors:
            val = f.evaluate(alpha)
            if val == 0:
                raise DomainError(f"{self} has a zero or pole at {alpha}; pick another point")
            acc = acc * pow(val, m, self.p) % self.p if self.p else acc * val**m
        return acc

    def __str__(self) -> str:
        facs = sorted(((pi, m) for f, m in self.factors for pi in f.places()), key=factor_key)
        parts = [str(self.constant)]
        for f, m in facs:
            parts.append(f"({f})^{m}" if m != 1 else f"({f})")
        return " * ".join(parts)


def common_basis(*entries: FactoredFunc) -> tuple[list[Place], list[FactoredFunc]]:
    """Factor refinement of K(x) entries (Bach, Driscoll and Shallit 1993):
    a monic, squarefree, pairwise coprime basis of the entries' factors, as
    places, and each entry rewritten as its constant times powers of them.

    Each factor a joins the basis by gcds g with the elements b in turn; b
    gives way to g and b/g, a goes on as a/g.  As a and b are squarefree,
    g, a/g and b/g are pairwise coprime, and g's exponent in each entry is
    the sum of a's and b's.  A factor a already on the basis is coprime to
    every other element, so it only adds its exponent there, with no gcd."""
    basis: dict[Poly, list[int]] = {}  # element -> exponents, in basis order
    for i, e in enumerate(entries):
        for a, m in e.factors:
            if a in basis:
                basis[a][i] += m
                continue
            va = [0] * len(entries)
            va[i] = m
            refined = {}
            for b, vb in basis.items():
                if a.degree == 0 or (g := b if a == b else a.gcd(b)).degree == 0:
                    refined[b] = vb
                    continue
                refined[g] = [x + y for x, y in zip(va, vb)]
                if g != b:
                    refined[b.divmod(g)[0]] = vb
                a = a.divmod(g)[0]
            if a.degree > 0:
                refined[a] = va
            basis = refined
    rewritten = [FactoredFunc(e.constant, tuple(sorted(((h, v[i]) for h, v in basis.items()
                                                        if v[i]), key=factor_key)))
                 for i, e in enumerate(entries)]
    return [Place(h) for h in basis], rewritten


def places(*entries: FactoredFunc) -> list[Place]:
    """The finite places dividing any of the entries, sorted."""
    mods = {pi for e in entries for f, _ in e.factors for pi in f.places()}
    return sorted((Place(m) for m in mods), key=Place.sort_key)


def tame_terms(f: FactoredFunc, g: FactoredFunc, v: Place, vals=None) -> list[tuple[Poly, int]]:
    """The tame symbol (-1)^(v(f)v(g)) f^v(g) g^(-v(f)) at v as (base, exponent)
    pairs whose product it is.

    Every base is a unit at v: -1, the two constants and, at a finite place,
    the factors other than v's own, after `split_at`.  At infinity only -1
    and the constants appear, the factors being monic.  On a common basis of
    f, g and v's modulus, vals = (v(f), v(g)) may be given: nothing splits."""
    if f.p != g.p:
        raise DomainError("characteristic mismatch")
    (f, vf), (g, vg) = zip((f, g), vals) if vals else (f.split_at(v), g.split_at(v))
    terms = [(f.constant.scalar(-1), vf * vg), (f.constant, vg), (g.constant, -vf)]
    if v.modulus is not None:
        terms += [(fac, m * vg) for fac, m in f.factors if fac != v.modulus]
        terms += [(fac, -m * vf) for fac, m in g.factors if fac != v.modulus]
    return terms


def odd_tame_bases(v: Place, *pairs: tuple) -> list[Poly]:
    """The bases whose tame-term exponents, summed over the pairs (f, g) or
    (f, g, vals) at v, `vals` passed to `tame_terms`, are odd.  Their product is
    that of the pairs' tame symbols up to squares, as prod b^e = prod b^(e mod 2)
    * (prod b^(e div 2))^2; equal bases merge."""
    exps: dict[Poly, int] = {}
    for base, e in (t for f, g, *vals in pairs for t in tame_terms(f, g, v, *vals)):
        exps[base] = exps.get(base, 0) + e
    return [base for base, e in exps.items() if e % 2]


def residue_support(pairs, nonsquare_places) -> list[Place]:
    """The finite places, sorted, where the sum of the pairs' symbols (f, g) has
    a nontrivial residue: at each element h of the entries' common basis, in
    order, `nonsquare_places(h, bases)` names the places pi | h where the
    product of the odd tame bases is a nonsquare mod pi.  There v_h(e) is read
    off e's exponent of h, not by division, and a pair of valuations 0 is skipped."""
    basis, entries = common_basis(*(e for pair in pairs for e in pair))
    split = [(e, dict(e.factors)) for e in entries]
    return sorted((v for h in basis if (bases := odd_tame_bases(h, *(
        (f, g, vals) for (f, ef), (g, eg) in zip(split[::2], split[1::2])
        for vals in [(ef.get(h.modulus, 0), eg.get(h.modulus, 0))] if vals != (0, 0))))
        for v in nonsquare_places(h.modulus, bases)), key=Place.sort_key)


class IsomorphismVerdict(NamedTuple):
    """Isomorphism over K(x), and why.  Br(F_p) = 0, so a verdict over F_p(x)
    sets only `isomorphic` and `witness_place`."""

    isomorphic: bool
    witness_place: Place | None = None
    witness_symbols: tuple[NumberFieldElem, NumberFieldElem] | None = None
    witness_invariants: BrauerClassQ | None = None
    specialization_point: Fraction | None = None
    citations: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out: dict = {"isomorphic": self.isomorphic}
        if self.citations:
            out["citations"] = list(self.citations)
        if self.witness_place is not None:
            out["witness_place"] = str(self.witness_place)
        if self.witness_symbols is not None:
            out["witness_symbols"] = [str(s.value) for s in self.witness_symbols]
        if self.witness_invariants is not None:
            out["witness_invariants"] = self.witness_invariants.to_json()
        if self.specialization_point is not None:
            out["specialization_point"] = str(self.specialization_point)
        return out

    def __str__(self) -> str:
        out = "isomorphic" if self.isomorphic else "not isomorphic"
        if self.witness_place is not None:
            out += f" (witness place: {self.witness_place})"
        if self.witness_invariants is not None:
            out += f" (witness invariants: {self.witness_invariants})"
        if self.specialization_point is not None:
            out += f" [specialized at x = {self.specialization_point}]"
        return out
