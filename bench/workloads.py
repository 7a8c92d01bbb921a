"""Seeded operation lists for the three workloads, and the checks on their outputs.

Every case carries the answer its construction implies; the checks compare
the program's JSON-shaped output with that answer and with `oracle`, which
shares no code with quatbrauer.  A check returns None when the output is
right and a one-line reason when it is not.

Cases are plain data (coefficient lists, strings, ints) so that they can be
sent to a fresh interpreter as JSON.  Operation i takes its kind and shape
from its position i, by a schedule that is the same for every seed, and draws
everything else from `random.Random(case_seed(seed, i))`; a list is fixed by
its seed and its length, and every list has the same mix of kinds and sizes.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import sympy

import oracle

QX_KINDS = ("square_twist", "swap", "prime_twist", "const_twist")
FP_KINDS = ("square_twist", "swap", "norm_twist", "nonresidue_twist")
CLI_KINDS = ("hilbert_real", "hilbert_all", "brq_class", "qx_isom", "qx_residues", "ffx_isom")

# (characteristics, largest entry degree) per tier of the F_p(x) sweep; the
# degree cap shrinks as p grows so that one operation stays well under a second
FP_TIERS = (((3, 5, 7, 11), 24),
            ((10007, 10009, 10037, 10039), 16),
            ((1000003,), 12),
            ((2147483647,), 10))

# non-square constants d whose norm forms A^2 - d B^2 give places where d is a square
NORM_DS = (-1, 2, -3, 5)
CONSTS = (1, -1, 2, -2, 3, -3, 5, -5, 6, -7)
SMALL_ODD_PRIMES = tuple(sympy.primerange(3, 100))


def case_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


# -- Q[x] helpers --------------------------------------------------------------

def _expand(const, places) -> list[Fraction]:
    """Coefficients, low degree first, of const * prod(place ** mult)."""
    acc = sympy.Poly(const, oracle.X, domain="QQ")
    for coeffs, m in places:
        acc = acc * oracle.poly_q(coeffs) ** m
    return [Fraction(int(c.p), int(c.q)) for c in reversed(acc.all_coeffs())]


def _poly_str(coeffs) -> str:
    """'3*x^2 - x + 1/2' for coefficients given low degree first."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[i])
        if c == 0:
            continue
        mag = abs(c)
        xp = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        body = str(mag) if not xp else (xp if mag == 1 else f"{mag}*{xp}")
        sign = "-" if c < 0 else "+"
        terms.append(f"{sign} {body}" if terms else (f"-{body}" if c < 0 else body))
    return " ".join(terms) or "0"


def _entry_str(const, places) -> str:
    parts = [str(const)]
    for coeffs, m in places:
        parts.append(f"({_poly_str(coeffs)})" + (f"^{m}" if m != 1 else ""))
    return "*".join(parts)


@functools.cache
def qx_place_pool() -> tuple[tuple[int, ...], ...]:
    """A fixed pool of monic irreducible integer polynomials of degree 1 to 6;
    it does not depend on the workload seed, so places repeat across operations."""
    rng = random.Random(20091018)
    pool: list[tuple[int, ...]] = []
    for deg, count in ((1, 8), (2, 8), (3, 6), (4, 5), (5, 3), (6, 2)):
        found = 0
        while found < count:
            coeffs = tuple(rng.randint(-5, 5) for _ in range(deg)) + (1,)
            if coeffs[0] == 0 or coeffs in pool or not oracle.poly_q(coeffs).is_irreducible:
                continue
            pool.append(coeffs)
            found += 1
    return tuple(pool)


@functools.cache
def norm_place_pool(d: int) -> tuple[tuple[int, ...], ...]:
    """Monic irreducible factors of A^2 - d B^2 with gcd(A, B) = 1: at each
    such place d = (A/B)^2 is a square in the residue field."""
    rng = random.Random(1000 + d)
    out: list[tuple[int, ...]] = []
    for deg, count in ((2, 3), (4, 2)):
        found = 0
        while found < count:
            if deg == 2:
                a, b = oracle.poly_q([rng.randint(-3, 3), 1]), oracle.poly_q([rng.randint(1, 2)])
            else:
                a = oracle.poly_q([rng.randint(-3, 3), rng.randint(-2, 2), 1])
                b = oracle.poly_q([rng.randint(-2, 2), rng.randint(1, 2)])
            if a.gcd(b).degree() > 0:
                continue
            n = a ** 2 - b ** 2 * d
            coeffs = tuple(int(c) for c in reversed(n.all_coeffs()))
            if coeffs in out or not n.is_irreducible:
                continue
            out.append(coeffs)
            found += 1
    return tuple(out)


def _places_of_degrees(rng, pool, degrees, exclude=()) -> list[tuple[int, ...]]:
    """Distinct pool places with the given degrees."""
    out: list[tuple[int, ...]] = []
    for d in degrees:
        out.append(rng.choice([p for p in pool if len(p) - 1 == d
                               and p not in out and p not in exclude]))
    return out


def _disc(coeffs) -> int:
    return int(sympy.discriminant(oracle.poly_q(coeffs).as_expr(), oracle.X))


# -- qx_isom -------------------------------------------------------------------

# Operation i has kind QX_KIND_CYCLE[i % 12] and shape (i // 12) % 8, so every
# run makes the same mix of kinds and place degrees; the seed picks the places
# of each degree from the pool, the constants and the primes.  Two thirds of
# the operations take the cheap paths (swap, and prime_twist with its Euler
# witness search), so the median falls inside that group and the 90th
# percentile inside the lifting group (square_twist, const_twist) instead of
# on the gap between them.
QX_KIND_CYCLE = ("prime_twist", "swap", "square_twist", "prime_twist", "const_twist", "swap",
                 "prime_twist", "square_twist", "swap", "prime_twist", "const_twist", "prime_twist")
# Shapes: degrees of the places of f (multiplicities 1, 2, 1, ...), of g,
# and of the twisting places h, s.
QX_SHAPES = (((1,), (1,), (1, 2)),
             ((2, 1), (2,), (1, 1)),
             ((3,), (1, 2), (2, 1)),
             ((4, 1), (3,), (1, 2)),
             ((2, 3), (4,), (2, 2)),
             ((5,), (1, 2), (1, 3)),
             ((6,), (2,), (1, 1)),
             ((1, 2, 3), (1,), (3, 1)))
# const_twist shapes: degrees of the norm places of f (multiplicities 1, 1),
# the degree of h in h^2 (0: none), the degrees of g and the degree of s
QX_CONST_SHAPES = (((2,), 0, (1,), 1),
                   ((2, 2), 1, (2,), 1),
                   ((4,), 0, (1, 2), 2),
                   ((2,), 2, (3,), 1),
                   ((2, 4), 0, (4,), 2),
                   ((4,), 1, (1, 2), 3),
                   ((2, 2), 0, (2,), 1),
                   ((2,), 3, (1,), 2))
# the CLI uses the first shapes only, to keep its degrees small
QX_SMALL_SHAPES = 3
QX_PERIOD = len(QX_KIND_CYCLE) * len(QX_SHAPES)


def qx_case(seed: int, i: int, small: bool = False) -> dict:
    """One pair of quaternion algebras over Q(x) with a known answer.

    square_twist: (f, g) vs (f, g h^2 s^2)            isomorphic
    swap:         (f, g) vs (g, f)                     isomorphic
    prime_twist:  (f, g) vs (f, q g), q an odd prime not dividing disc(pi)
                  for an odd-multiplicity place pi of f: q is not a square
                  in Q[x]/(pi), so the residue at pi differs
    const_twist:  f = a * (norm places for d) * h^2, (f, g) vs (f, d g s^2):
                  the difference (f, d) is the constant class (a, d) != 0,
                  so only the specialization can tell them apart
    """
    rng = random.Random(case_seed(seed, i))
    kind = QX_KIND_CYCLE[i % len(QX_KIND_CYCLE)]
    shape = (i // len(QX_KIND_CYCLE)) % (QX_SMALL_SHAPES if small else len(QX_SHAPES))
    pool = qx_place_pool()
    a, b = rng.choice(CONSTS), rng.choice(CONSTS)
    if kind == "const_twist":
        norm_degs, h_deg, g_degs, s_deg = QX_CONST_SHAPES[shape]
        d = rng.choice(NORM_DS)
        while not oracle.brq_support(a, d):
            a = rng.choice(CONSTS)
        f_pl = [(p, 1) for p in _places_of_degrees(rng, norm_place_pool(d), norm_degs)]
        g_pl = [(p, 1) for p in _places_of_degrees(rng, pool, g_degs)]
        if h_deg:
            f_pl += [(p, 2) for p in _places_of_degrees(rng, pool, (h_deg,))]
        (s,) = _places_of_degrees(rng, pool, (s_deg,))
        f = (a, f_pl)
        pairs = ((f, (b, g_pl)), (f, (b * d, g_pl + [(s, 2)])))
        extra = {"twist": d, "const": a}
    else:
        f_degs, g_degs, tw_degs = QX_SHAPES[shape]
        f_places = _places_of_degrees(rng, pool, f_degs)
        g_pl = [(p, 1) for p in _places_of_degrees(rng, pool, g_degs, exclude=f_places)]
        f_pl = [(pl, 1 + j % 2) for j, pl in enumerate(f_places)]
        f, g = (a, f_pl), (b, g_pl)
        extra = {}
        if kind == "square_twist":
            h, s = _places_of_degrees(rng, pool, tw_degs)
            pairs = ((f, g), (f, (b, g_pl + [(h, 2), (s, 2)])))
        elif kind == "swap":
            pairs = ((f, g), (g, f))
        else:
            disc = _disc(f_places[0])
            q = rng.choice([q for q in SMALL_ODD_PRIMES if disc % q])
            pairs = ((f, g), (f, (b * q, g_pl)))
            extra = {"prime": q}
    entries = [pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1]]
    return {
        "kind": kind,
        "expected": kind in ("square_twist", "swap"),
        "coeffs": [_expand(c, pl) for c, pl in entries],
        "strings": [_entry_str(c, pl) for c, pl in entries],
        "places": sorted({tuple(p) for _, pl in entries for p, _ in pl}),
        **extra,
    }


def repeated_place_share(cases: list[dict]) -> float:
    """Share of operations with a place that an earlier operation also had."""
    seen: set = set()
    hits = 0
    for c in cases:
        places = set(c["places"])
        hits += bool(places & seen)
        seen |= places
    return hits / len(cases) if cases else 0.0


def _br_difference(coeffs, alpha: Fraction) -> frozenset[str]:
    """Support of (f1, g1) - (f2, g2) in Br(Q) after evaluating at alpha."""
    vals = [oracle.evaluate(c, alpha) for c in coeffs]
    if any(v == 0 for v in vals):
        raise ValueError(f"x = {alpha} is a zero or pole of an entry")
    return oracle.brq_support(vals[0], vals[1]) ^ oracle.brq_support(vals[2], vals[3])


def _invariant_support(cls: dict) -> frozenset[str] | None:
    """Support of a Br(Q) class printed as invariants; None if an invariant is not 1/2."""
    invs = cls.get("invariants", [])
    if any(item["inv"] != "1/2" for item in invs):
        return None
    return frozenset(str(item["place"]) for item in invs)


def check_qx(case: dict, out: dict) -> str | None:
    """Check an isomorphism verdict over Q(x), given as its JSON form."""
    if out.get("isomorphic") is not case["expected"]:
        return f"{case['kind']}: verdict {out.get('isomorphic')}, expected {case['expected']}"
    if case["kind"] == "prime_twist":
        if "witness_place" not in out:
            return "prime twist decided without a residue witness"
        f1 = oracle.poly_q(case["coeffs"][0])
        if oracle.multiplicity(f1, oracle.parse_place(out["witness_place"])) % 2 == 0:
            return f"witness place {out['witness_place']} is not an odd place of f"
        return None
    if "specialization_point" not in out:
        return f"{case['kind']} decided without a specialization point"
    alpha = Fraction(out["specialization_point"])
    try:
        diff = _br_difference(case["coeffs"], alpha)
    except ValueError as exc:
        return str(exc)
    if case["expected"]:
        return f"classes differ at x = {alpha} by {sorted(diff)}" if diff else None
    got = _invariant_support(out.get("witness_invariants", {}))
    if not diff or got != diff:
        return f"witness invariants {got} != recomputed {sorted(diff)} at x = {alpha}"
    return None


# -- fpx_class -----------------------------------------------------------------

def _degree_pattern(n: int) -> list[int]:
    """Factor degrees for an entry of degree n: the largest part about 0.6 n,
    as for a typical random polynomial, then the same rule on the rest."""
    parts = []
    while n:
        k = max(1, round(0.6 * n))
        parts.append(k)
        n -= k
    return parts


def _fp_entry(rng, p: int, deg: int) -> tuple[int, list]:
    """(leading coefficient, [(monic irreducible, multiplicity)]) of degree deg."""
    return rng.randrange(1, p), [(oracle.random_irreducible(rng, p, d), 1)
                                 for d in _degree_pattern(deg)]


def _fp_product(p: int, *entries) -> tuple[int, list]:
    lc, facs = 1, {}
    for c, fs in entries:
        lc = lc * c % p
        for h, m in fs:
            facs[tuple(h)] = facs.get(tuple(h), 0) + m
    return lc, [(list(h), m) for h, m in facs.items()]


# Operation i has tier i % 4, kind (i // 4) % 4 and degree slot (i // 16) % 4,
# and cycles through the characteristics of its tier, so every run makes the
# same mix of p, kinds and degrees; the seed draws the coefficients.
FP_DEGREE_FRACTIONS = (0.2, 0.45, 0.7, 0.95)
FP_PERIOD = len(FP_TIERS) * len(FP_KINDS) * len(FP_DEGREE_FRACTIONS)


def fpx_case(seed: int, i: int, small: bool = False) -> dict:
    """One pair over F_p(x) with a known answer.

    square_twist:     (f, g) vs (f, g h^2)     isomorphic
    swap:             (f, g) vs (g, f)         isomorphic
    norm_twist:       (f, g) vs (f, -f g)      isomorphic, since (f, -f) = 0
    nonresidue_twist: (f, g) vs (f, c g), c a non-residue mod p and deg f
                      odd: the residue at infinity differs
    """
    rng = random.Random(case_seed(seed, i))
    primes, cap = FP_TIERS[i % len(FP_TIERS)]
    kind = FP_KINDS[(i // len(FP_TIERS)) % len(FP_KINDS)]
    slot = (i // (len(FP_TIERS) * len(FP_KINDS))) % len(FP_DEGREE_FRACTIONS)
    p = primes[(i // FP_PERIOD) % len(primes)]
    if small:
        cap = min(cap, 6)
    x, y = FP_DEGREE_FRACTIONS[slot], FP_DEGREE_FRACTIONS[(slot + 2) % 4]
    df, dg = max(1, round(cap * x)), max(1, round(cap * y))
    if kind == "square_twist":
        dh = 1 + slot % 2
        f, g, h = (_fp_entry(rng, p, d) for d in (df, max(1, min(cap - 2 * dh, dg)), dh))
        pairs = ((f, g), (f, _fp_product(p, g, h, h)))
    elif kind == "swap":
        f, g = _fp_entry(rng, p, df), _fp_entry(rng, p, dg)
        pairs = ((f, g), (g, f))
    elif kind == "norm_twist":
        df = min(df, cap - 1)
        f, g = _fp_entry(rng, p, df), _fp_entry(rng, p, max(1, min(cap - df, dg)))
        pairs = ((f, g), (f, _fp_product(p, (p - 1, []), f, g)))
    else:
        df = df if df % 2 else df - 1
        f, g = _fp_entry(rng, p, df), _fp_entry(rng, p, dg)
        c = oracle.nonresidue(p, rng.randrange(2, p))
        pairs = ((f, g), (f, _fp_product(p, (c, []), g)))
    entries = [pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1]]
    coeffs = [oracle.expand_fp(p, lc, facs) for lc, facs in entries]
    places = sorted({tuple(h) for _, facs in entries for h, _ in facs})
    return {"kind": kind, "p": p, "expected": kind != "nonresidue_twist",
            "coeffs": coeffs, "strings": [_poly_str(c) for c in coeffs], "places": places}


def _fp_place_key(s: str, p: int):
    if s == "inf":
        return "inf"
    h = sympy.Poly(sympy.sympify(s.replace("^", "**"), locals={"x": oracle.X}),
                   oracle.X, modulus=p)
    return tuple(int(c) % p for c in reversed(h.monic().all_coeffs()))


def fpx_expected_supports(case: dict) -> tuple[frozenset, frozenset]:
    p, (f1, g1, f2, g2), places = case["p"], case["coeffs"], case["places"]
    return (oracle.fp_residue_support(p, f1, g1, places),
            oracle.fp_residue_support(p, f2, g2, places))


def check_fpx(case: dict, verdict: dict, classes: list[dict] | None) -> str | None:
    """Check an F_p(x) verdict and, when given, the two residue vectors it was
    made from (`class_fp(...).to_json()`), against the norm-Legendre oracle."""
    p = case["p"]
    s1, s2 = fpx_expected_supports(case)
    if (s1 == s2) is not case["expected"]:
        return f"oracle residues disagree with the {case['kind']} construction"
    if verdict.get("isomorphic") is not case["expected"]:
        return f"{case['kind']}: verdict {verdict.get('isomorphic')}, expected {case['expected']}"
    if not case["expected"]:
        if "witness_place" not in verdict:
            return "non-isomorphic verdict without a witness place"
        if _fp_place_key(verdict["witness_place"], p) not in s1 ^ s2:
            return f"witness place {verdict['witness_place']} has equal residues"
    if classes is not None and len(classes) != 2:
        return f"the verdict was made from {len(classes)} residue vectors, not 2"
    for got, want in zip(classes or (), (s1, s2)):
        keys = frozenset(_fp_place_key(s, p) for s in got["ramified"])
        if got["char"] != p or keys != want or len(keys) != len(got["ramified"]):
            return f"residue vector {got['ramified']} != norm-Legendre {sorted(map(str, want))}"
    return None


# -- cli -----------------------------------------------------------------------

def _big_entry(rng) -> tuple[int, tuple[int, ...]]:
    """A signed 18-20 digit integer and the primes it was built from: two
    8-digit primes times small odd primes."""
    while True:
        primes = [int(sympy.nextprime(rng.randrange(10**7, 10**8))) for _ in range(2)]
        n = primes[0] * primes[1]
        while n < 10**17:
            q = rng.choice(SMALL_ODD_PRIMES)
            primes.append(q)
            n *= q
        if n < 10**20 and len(set(primes)) == len(primes):
            return rng.choice((1, -1)) * n, tuple(sorted(primes))


def _small_rational(rng) -> Fraction:
    while True:
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
        if q not in (0, 1):
            return q


def _opts(*pairs) -> list[str]:
    """Option arguments; a value starting with "-" goes as -a=VALUE, because
    the CLI's argument parser reads "-a -9/5" as a missing value."""
    out: list[str] = []
    for flag, value in pairs:
        value = str(value)
        out += [f"{flag}={value}"] if value.startswith("-") else [flag, value]
    return out


# qx residues: degrees and multiplicities of the places of f
CLI_RESIDUE_SHAPES = (((2, 2), (1, 3)), ((1, 3), (2, 1)), ((2, 1, 1), (1, 2, 1)))


def cli_case(seed: int, i: int) -> dict:
    """One CLI process; the subcommands cycle in a fixed order."""
    rng = random.Random(case_seed(seed, i))
    kind = CLI_KINDS[i % len(CLI_KINDS)]
    case: dict = {"kind": kind}
    if kind == "hilbert_real":
        # both negative: the real symbol is -1; a Steinberg pair: it is +1
        a, b = -abs(_small_rational(rng)), -abs(_small_rational(rng))
        if (i // len(CLI_KINDS)) % 2:
            b = 1 - a
        case["argv"] = ["hilbert", *_opts(("-a", a), ("-b", b)), "--real"]
        case["symbol"] = -1 if a < 0 and b < 0 else 1
    elif kind == "hilbert_all":
        if (i // len(CLI_KINDS)) % 2:
            a, primes = _big_entry(rng)
            b, pa, pb = -a, primes, primes
        else:
            a = _small_rational(rng)
            b, pa, pb = 1 - a, None, None
        case["argv"] = ["hilbert", *_opts(("-a", a), ("-b", b)), "--all"]
        places = {"real", "2"} | {str(q) for q in oracle.primes_of(a, pa) | oracle.primes_of(b, pb)}
        case["places"] = sorted(places)
    elif kind == "brq_class":
        (a, pa), (b, pb) = _big_entry(rng), _big_entry(rng)
        case["argv"] = ["brq", "class", *_opts(("-a", a), ("-b", b))]
        case["built_from"] = [[a, list(pa)], [b, list(pb)]]
        case["support"] = sorted(oracle.brq_support(a, b, pa, pb))
    elif kind == "qx_isom":
        qc = qx_case(seed, i // len(CLI_KINDS), small=True)
        s = qc["strings"]
        case["argv"] = ["qx", "isom", *_opts(*zip(("-f1", "-g1", "-f2", "-g2"), s))]
        case["qx"] = qc
    elif kind == "qx_residues":
        degrees, mults = CLI_RESIDUE_SHAPES[(i // len(CLI_KINDS)) % len(CLI_RESIDUE_SHAPES)]
        f_pl = list(zip(_places_of_degrees(rng, qx_place_pool(), degrees), mults))
        bad = 1
        for p, m in f_pl:
            bad *= _disc(p) if m % 2 else 1
        q = rng.choice([q for q in SMALL_ODD_PRIMES if bad % q])
        case["argv"] = ["qx", "residues",
                        *_opts(("-f", _entry_str(rng.choice(CONSTS), f_pl)), ("-g", q))]
        case["ramified"] = sorted(p for p, m in f_pl if m % 2)
    else:
        fc = fpx_case(seed, i // len(CLI_KINDS), small=True)
        s = fc["strings"]
        case["argv"] = ["ffx", "isom", "--char", str(fc["p"]),
                        *_opts(*zip(("-f1", "-g1", "-f2", "-g2"), s))]
        case["fpx"] = fc
    case["argv"] = ["--json", "--seed", str(case_seed(seed, i) % 2**31)] + case["argv"]
    return case


def check_cli(case: dict, out: dict) -> str | None:
    """Check the parsed --json output of one CLI process."""
    kind = case["kind"]
    if kind == "hilbert_real":
        if out != {"place": "real", "symbol": case["symbol"]}:
            return f"hilbert --real gave {out}, expected symbol {case['symbol']}"
    elif kind == "hilbert_all":
        syms = out.get("symbols", {})
        if sorted(syms) != case["places"]:
            return f"hilbert --all places {sorted(syms)} != {case['places']}"
        prod = 1
        for s in syms.values():
            prod *= s
        if out.get("product") != 1 or prod != 1:
            return "product formula violated"
        if any(s != 1 for s in syms.values()):
            return f"Steinberg pair not split: {syms}"
    elif kind == "brq_class":
        for n, primes in case["built_from"]:
            prod = 1
            for q in primes:
                prod *= q
            if prod != abs(n):
                return f"{n} is not the product of the primes it was built from"
        if _invariant_support(out) != frozenset(case["support"]):
            return f"class {out} != invariants at {case['support']}"
    elif kind == "qx_isom":
        return check_qx(case["qx"], out)
    elif kind == "qx_residues":
        got = set()
        for s in out.get("ramified", []):
            got.add(tuple(int(c) for c in reversed(oracle.parse_place(s).all_coeffs())))
        if got != {tuple(p) for p in case["ramified"]}:
            return f"ramified places {out.get('ramified')} != odd places of f"
    else:
        return check_fpx(case["fpx"], out, None)
    return None
