"""Integer arithmetic: primality, factorization and the Euler criterion.

The Hilbert symbols and Br(Q) classes of `brauer_q` need nothing else, so a
process that computes only those loads no polynomial code.  The polynomial
layers take their primes and quadratic characters from here too.
"""

import random
from math import gcd

from .errors import BUDGETS, BudgetError, DomainError

_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Trial division stops here and Pollard-Brent takes the cofactor.  On 18-20
# digit entries (two 8-digit primes times primes below 100) the median cost
# per entry was 64 ms with a bound of 10**6, 3.6 ms with 10**4 and 3.1 ms with
# 10**3; lower bounds gained nothing.
TRIAL_DIVISION_BOUND = 10**3


def is_prime(n: int) -> bool:
    """Miller-Rabin: deterministic below 2**64; above, 64 bases seeded by n."""
    if n < 2:
        return False
    for p in _MR_BASES_64:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < 2**64:
        return not any(witness(a) for a in _MR_BASES_64)
    rng = random.Random(0xC0FFEE ^ n)
    return not any(witness(rng.randrange(2, n - 1)) for _ in range(64))


def _pollard_brent(n: int, rng: random.Random) -> int:
    """Brent-cycle Pollard rho; a nontrivial factor of composite odd n."""
    steps, limit = 0, BUDGETS.get().pollard_steps
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            if (steps := steps + 2 * r) > limit:  # a block steps y 2r times
                raise BudgetError(f"no factor of {n} found within pollard_steps = {limit}")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _iroot(m: int, k: int) -> int:
    """The integer k-th root floor(m^(1/k)) of m >= 1, by Newton's method."""
    x = 1 << -(-m.bit_length() // k)  # at least the root
    while (y := ((k - 1) * x + m // x ** (k - 1)) // k) < x:
        x = y
    return x


def _factor_positive(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    rng = None  # seeded at the first Pollard-Brent call, its only reader
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    while d * d <= n and d < TRIAL_DIVISION_BOUND:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        # a power r^k first, which rho may not split: m has no prime below
        # TRIAL_DIVISION_BOUND > 2^9, so r > 2^9 and k <= bitlen(m) / 9
        for k in range(2, m.bit_length() // 9 + 1):
            if (r := _iroot(m, k)) ** k == m:
                stack.extend([r] * k)
                break
        else:
            g = _pollard_brent(m, rng := rng or random.Random(0x5EED))
            stack.extend((g, m // g))
    return factors


def factor_int(n: int) -> dict[int, int]:
    """{prime: exponent} of |n| for nonzero n, primes ascending.  A prime below
    2^64 is certified (deterministic Miller-Rabin); one above is probable."""
    if n == 0:
        raise DomainError("cannot factor zero")
    return dict(sorted(_factor_positive(abs(n)).items()))


def euler_char(n: int, p: int) -> int:
    """(n / p) = n^((p-1)/2) for n prime to the odd prime p, unchecked: the Euler
    criterion that every quadratic character of the package ends in."""
    return 1 if pow(n, p // 2, p) == 1 else -1
