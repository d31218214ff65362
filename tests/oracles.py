"""Independent reference implementations the tests compare against.

Everything here is deliberately written by a different route than the
package code: the Kronecker symbol goes through Euler's criterion and
factorization instead of reciprocity, eta comes from its product
expansion instead of the sparse square-index sum, and the divisor sums
lean on sympy.  Slow is fine; these only run at test scale.
"""

import functools

import numpy as np
import sympy


def kronecker_oracle(a: int, n: int) -> int:
    """Kronecker symbol via factorization and Euler's criterion."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    for p, e in sympy.factorint(n).items():
        if p == 2:
            if a % 2 == 0:
                return 0
            if a % 8 in (3, 5):
                result *= (-1) ** e
        else:
            if a % p == 0:
                return 0
            # Euler: a^((p-1)/2) is +1 or -1 mod p
            s = pow(a, (p - 1) // 2, p)
            if s == p - 1:
                result *= (-1) ** e
            elif s != 1:
                raise AssertionError(f"euler criterion broke at a={a}, p={p}")
    return result


def eta_product_coeffs(prec: int) -> list:
    """1/24-indexed eta coefficients from q^(1/24) * prod (1 - q^n).

    Multiplies the sparse binomials one by one; exact over Z.
    """
    # work at integer exponents first: prod_{n>=1} (1 - x^n) up to x^m
    m = (prec + 23) // 24
    poly = [0] * (m + 1)
    poly[0] = 1
    for n in range(1, m + 1):
        # multiply by (1 - x^n) in place, descending to reuse the buffer
        for i in range(m, n - 1, -1):
            poly[i] -= poly[i - n]
    out = [0] * prec
    for i, c in enumerate(poly):
        idx = 24 * i + 1
        if idx < prec:
            out[idx] = c
    return out


def delta_product_coeffs(prec: int) -> list:
    """1/24-indexed discriminant coefficients from q * prod (1 - q^n)^24."""
    m = (prec + 23) // 24
    poly = [0] * (m + 1)
    poly[0] = 1
    for n in range(1, m + 1):
        for _ in range(24):
            for i in range(m, n - 1, -1):
                poly[i] -= poly[i - n]
    out = [0] * prec
    for i, c in enumerate(poly):
        idx = 24 * (i + 1)
        if idx < prec:
            out[idx] = c
    return out


def shimura_sum_oracle(coeffs, t: int, lam: int, n: int, ell: int) -> int:
    """Brute-force divisor sum for the lift coefficient A_t(n)."""
    total = 0
    for d in sympy.divisors(n):
        term = kronecker_oracle(-1, d) ** lam * kronecker_oracle(12 * t, d)
        total += term * pow(d, lam - 1, ell) * coeffs[t * (n // d) ** 2]
    return total % ell


def sigma_oracle(n: int, e: int) -> int:
    return int(sympy.divisor_sigma(n, e))


def eisenstein_coeffs(prec: int, k: int) -> list:
    """1/24-indexed E4 (k = 4) or E6 (k = 6): 1 + c sum sigma_(k-1)(n) q^n, c = 240 or -504."""
    c = {4: 240, 6: -504}[k]
    out = [0] * prec
    for n in range(0, prec, 24):
        out[n] = c * sigma_oracle(n // 24, k - 1) if n else 1
    return out


class DenseSeries:
    """Reference q^(1/24)-series: the plain list a(0), ..., a(prec - 1) mod modulus.

    This is how the package stored series before strands, with the same
    reduction, support-class and precision rules, written with Python
    loops over every index.  The functions below apply the package's
    operators to it, by their defining formulas.
    """

    def __init__(self, coeffs, prec, modulus, residue):
        coeffs = [int(c) % modulus for c in coeffs] + [0] * (prec - len(coeffs))
        if not 0 <= residue < 24:
            raise ValueError("residue must lie in [0, 24)")
        for n, c in enumerate(coeffs):
            if c and n % 24 != residue:
                raise ValueError(
                    f"coefficient at index {n} violates support class "
                    f"{residue} (mod 24)"
                )
        self.coeffs, self.prec, self.modulus, self.residue = coeffs, prec, modulus, residue

    def valuation(self):
        return next((n for n, c in enumerate(self.coeffs) if c), self.prec)

    def is_zero(self):
        return not any(self.coeffs)


def dense_add(f, g, sign=1):
    """f + sign g; a zero operand takes the other's class, two other classes have no sum."""
    prec = min(f.prec, g.prec)
    if f.residue == g.residue:
        residue = f.residue
    elif f.is_zero():
        residue = g.residue
    elif g.is_zero():
        residue = f.residue
    else:
        raise ValueError(f"series on classes {f.residue} and {g.residue} (mod 24) have no sum")
    out = [f.coeffs[n] + sign * g.coeffs[n] for n in range(prec)]
    return DenseSeries(out, prec, f.modulus, residue)


def dense_scale(f, c):
    return DenseSeries([c * a for a in f.coeffs], f.prec, f.modulus, f.residue)


def dense_mul(f, g):
    prec = min(f.prec + g.valuation(), g.prec + f.valuation())
    out = [0] * prec
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            if i + j < prec:
                out[i + j] += a * b
    return DenseSeries(out, prec, f.modulus, (f.residue + g.residue) % 24)


def dense_theta(f, j=1):
    """theta^j: a(n) times (n/24)^j mod ell, by Python pow at every index (0^0 = 1)."""
    ell = f.modulus
    inv24 = pow(24, -1, ell)
    return DenseSeries([pow(n * inv24, j, ell) * a for n, a in enumerate(f.coeffs)], f.prec, ell, f.residue)


def dense_u(f, m):
    """U_m for m prime to 6; for other m the image leaves one class mod 24."""
    if m % 2 == 0 or m % 3 == 0:
        raise ValueError(f"U_m needs m >= 1 prime to 24, got {m}")
    prec = -(-f.prec // m)
    residue = f.residue * pow(m, -1, 24) % 24
    return DenseSeries([f.coeffs[m * n] for n in range(prec)], prec, f.modulus, residue)


def dense_v(f, m):
    out = [0] * (m * f.prec)
    for n, a in enumerate(f.coeffs):
        out[m * n] = a
    return DenseSeries(out, m * f.prec, f.modulus, m * f.residue % 24)


def dense_hecke_tp2(f, p, lam_int):
    """b(n) = a(p^2 n) + chi(p) ((-1)^lam n | p) p^(lam-1) a(n) + p^(2 lam - 1) a(n / p^2)."""
    ell = f.modulus
    chi = kronecker_oracle(12, p)
    sign = kronecker_oracle(-1, p) if lam_int % 2 else 1
    c1 = chi * sign * pow(p, lam_int - 1, ell)
    c2 = pow(p, 2 * lam_int - 1, ell)
    prec = -(-f.prec // (p * p))
    out = []
    for n in range(prec):
        b = f.coeffs[p * p * n] + c1 * kronecker_oracle(n, p) * f.coeffs[n]
        if n % (p * p) == 0:
            b += c2 * f.coeffs[n // (p * p)]
        out.append(b)
    return DenseSeries(out, prec, ell, f.residue)


def _poly_mul(a, b, ell):
    """Product of two integer-exponent polynomials mod ell, truncated to len(a) terms."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: len(a) - i]):
                out[i + j] = (out[i + j] + x * y) % ell
    return out


def _euler_power(e, m):
    """prod_{n >= 1} (1 - x^n)^e up to x^(m-1), over Z."""
    poly = [1] + [0] * (m - 1)
    for n in range(1, m):
        for _ in range(e):
            for i in range(m - 1, n - 1, -1):
                poly[i] -= poly[i - n]
    return poly


def eta_space_oracle(lam, r, ell, prec):
    """Echelon basis of eta^r0 * M_w mod ell, r0 = r mod 24, w = lam + (1 - r0)/2.

    Spans the space by every monomial eta^r0 Delta^j E4^a E6^b with
    12j + 4a + 6b = w (none when w is negative or odd): eta^r0 and Delta
    from their product formulas, E4 and E6 from sympy's divisor sums,
    multiplied as polynomials in q on the strand of indices r0 + 24m.
    Gauss-Jordan elimination with pivot search gives the reduced basis.
    Returns (pivot indices, elements as dense lists a(0), ..., a(prec-1)),
    sorted by pivot.
    """
    r0 = r % 24
    w = lam + (1 - r0) // 2
    m = len(range(r0, prec, 24))
    e4 = [1] + [240 * sigma_oracle(n, 3) % ell for n in range(1, m)]
    e6 = [1] + [-504 * sigma_oracle(n, 5) % ell for n in range(1, m)]
    delta = ([0] + [c % ell for c in _euler_power(24, m)])[:m]
    rows = []
    for j in range(w // 12 + 1):
        for b in range((w - 12 * j) // 6 + 1):
            rest = w - 12 * j - 6 * b
            if rest % 4:
                continue
            row = [c % ell for c in _euler_power(r0, m)]
            for factor, e in ((delta, j), (e4, rest // 4), (e6, b)):
                for _ in range(e):
                    row = _poly_mul(row, factor, ell)
            rows.append(row)
    pivots, basis = [], []
    for row in rows:
        for p, other in zip(pivots, basis):
            row = [(x - row[p] * y) % ell for x, y in zip(row, other)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, ell)
        row = [x * inv % ell for x in row]
        basis = [[(x - other[lead] * y) % ell for x, y in zip(other, row)] for other in basis]
        pivots.append(lead)
        basis.append(row)
    elements = []
    for p, row in sorted(zip(pivots, basis)):
        dense = [0] * prec
        dense[r0::24] = row
        elements.append(dense)
    return [r0 + 24 * p for p in sorted(pivots)], elements


def eta_membership_oracle(coeffs, lam, r, ell, depth):
    """Membership of the dense list coeffs (mod ell) in eta^r0 * M_w, solved to depth.

    ("member", coordinates, depth, checked) or ("not", witness).  The
    witness is the first nonzero index off the class r0 (mod 24) anywhere,
    else the first index below depth where coeffs differs from the
    combination of the eta_space_oracle basis with coeffs' values at the
    pivots.  checked counts the strand indices below depth that are not
    pivots.  In an empty space only zero is a member, to all of coeffs,
    and every strand index is checked.
    """
    prec, r0 = len(coeffs), r % 24
    off = next((n for n, c in enumerate(coeffs) if c and n % 24 != r0), None)
    if off is not None:
        return ("not", off)
    pivots, elements = eta_space_oracle(lam, r, ell, prec)
    if not pivots:
        nonzero = next((n for n, c in enumerate(coeffs) if c), None)
        if nonzero is not None:
            return ("not", nonzero)
        return ("member", (), prec, len(range(r0, prec, 24)))
    coords = tuple(coeffs[p] for p in pivots)
    for n in range(depth):
        if coeffs[n] != sum(c * e[n] for c, e in zip(coords, elements)) % ell:
            return ("not", n)
    return ("member", coords, depth, len(range(r0, depth, 24)) - len(pivots))


@functools.lru_cache(maxsize=None)
def _squarefree_parts(limit):
    """Squarefree part of every n < limit, by dividing out k^2 over its multiples."""
    part = list(range(limit))
    k = 2
    while k * k < limit:
        square = k * k
        for n in range(square, limit, square):
            while part[n] % square == 0:
                part[n] //= square
        k += 1
    return part


def _strand_power(base, e, ell):
    """base^e mod ell as a truncated power series in q, by repeated squaring."""
    out = np.zeros(base.size, dtype=base.dtype)
    out[0] = 1
    while e:
        if e & 1:
            out = np.convolve(out, base)[: base.size] % ell
        base = np.convolve(base, base)[: base.size] % ell
        e >>= 1
    return out


def _row_reduce(mat, ell, ncols):
    """Reduced echelon form of mat mod ell, pivoting on its first ncols columns.

    Gauss-Jordan with pivot search; returns (matrix, rank), with the rank
    pivot rows first.
    """
    mat = mat % ell
    rank = 0
    for col in range(ncols):
        if rank == len(mat):
            break
        nonzero = np.flatnonzero(mat[rank:, col])
        if not nonzero.size:
            continue
        mat[[rank, rank + nonzero[0]]] = mat[[rank + nonzero[0], rank]]
        mat[rank] = mat[rank] * pow(int(mat[rank, col]), -1, ell) % ell
        factors = mat[:, col].copy()
        factors[rank] = 0
        mat -= np.outer(factors, mat[rank])
        mat %= ell
        rank += 1
    return mat, rank


@functools.lru_cache(maxsize=None)
def _level_one_strands(ell, L):
    """prod (1 - q^n), Delta, E4 and E6 mod ell on L coefficients, read-only.

    int64 while a sum of L products of residues stays below 2^62, else
    Python integers.
    """
    dtype = np.int64 if L * (ell - 1) ** 2 < 2**62 else object
    euler = np.array([c % ell for c in _euler_power(1, L)], dtype=dtype)
    delta = np.zeros(L, dtype=dtype)
    delta[1:] = _strand_power(euler, 24, ell)[: L - 1]
    e4 = np.array([1] + [240 * sigma_oracle(n, 3) % ell for n in range(1, L)], dtype=dtype)
    e6 = np.array([1] + [-504 * sigma_oracle(n, 5) % ell for n in range(1, L)], dtype=dtype)
    for a in (euler, delta, e4, e6):
        a.flags.writeable = False
    return euler, delta, e4, e6


def square_class_kernel(ell, lam, r0, classes, L):
    """Forms of eta^r0 * M_w mod ell supported on the given square classes below L.

    w = lam + (1 - r0)/2 and r0 is a residue prime to 6 in (0, 24).  The
    space is spanned by Miller's monomials eta^r0 Delta^j E4^a E6^b,
    j = 0 .. dim M_w - 1, b in {0, 1}, whose strands start at q^j: eta^r0
    and Delta from prod (1 - q^n), E4 and E6 from sympy's divisor sums.
    Column m is the strand index n = r0 + 24m, m < L; it is constrained
    when the squarefree part of n, from a sieve, lies outside classes.
    Gauss-Jordan on the constrained columns leaves the combinations that
    vanish there.  Returns their reduced echelon basis, each form as its L
    strand coefficients mod ell; the empty list when no nonzero form
    qualifies.  L must pass the pivots, so that the monomials stay
    independent, and ell must keep int64 sums of products exact.
    """
    assert 0 < r0 < 24 and r0 % 2 and r0 % 3 and L * (ell - 1) ** 2 < 2**62
    w = lam + (1 - r0) // 2
    b = w % 4 // 2  # E6 carries the weight 2 (mod 4), the same for every j
    dim = 0 if w % 2 else len([j for j in range(w // 12 + 1) if w - 12 * j >= 6 * b])
    if not dim:
        return []
    assert L > dim
    euler, delta, e4, e6 = _level_one_strands(ell, L)
    eta_deltas = [_strand_power(euler, r0, ell)]  # eta^r0 Delta^j on its strand
    for _ in range(dim - 1):
        eta_deltas.append(np.convolve(eta_deltas[-1], delta)[:L] % ell)
    # a = (w - 12 j - 6 b) / 4 falls by 3 as j rises by 1
    e4_power = _strand_power(e4, (w - 12 * (dim - 1) - 6 * b) // 4, ell)
    cube = _strand_power(e4, 3, ell)
    rows = []
    for j in reversed(range(dim)):
        row = np.convolve(eta_deltas[j], e4_power)[:L] % ell
        rows.append(np.convolve(row, e6)[:L] % ell if b else row)
        e4_power = np.convolve(e4_power, cube)[:L] % ell
    rows.reverse()
    rows = np.array(rows)
    part = _squarefree_parts(r0 + 24 * L)
    constrained = [m for m in range(L) if part[r0 + 24 * m] not in classes]
    reduced, rank = _row_reduce(np.hstack((rows[:, constrained], rows)), ell, len(constrained))
    kernel, _ = _row_reduce(reduced[rank:, len(constrained):], ell, L)
    return kernel.tolist()


def miller_basis_oracle(k, ell, L):
    """Reduced echelon basis of M_k mod ell on L integer-exponent coefficients.

    Miller's monomials Delta^j E4^a E6^b for 12j <= k - 6b, with b in
    {0, 1} fixed by k mod 4 and a = (k - 12j - 6b)/4: Delta from
    prod (1 - q^n), E4 and E6 from sympy's divisor sums, powers by
    repeated squaring, then Gauss-Jordan with pivot search on all L
    columns.  Returns the rows as lists, one per pivot.  Any ring: past
    the int64 bound the strands hold Python integers.
    """
    b = k % 4 // 2
    js = [j for j in range(k // 12 + 1) if k - 12 * j >= 6 * b] if k >= 0 and k % 2 == 0 else []
    if not js:
        return []
    _, delta, e4, e6 = _level_one_strands(ell, L)
    rows = []
    for j in js:
        row = np.convolve(_strand_power(delta, j, ell), _strand_power(e4, (k - 12 * j - 6 * b) // 4, ell))[:L] % ell
        rows.append(np.convolve(row, e6)[:L] % ell if b else row)
    reduced, rank = _row_reduce(np.array(rows), ell, L)
    return reduced[:rank].tolist()
