"""Finite field contexts.

Two kinds of field are supported:

 - PrimeField: GF(p) with p prime, elements stored as int64 residues in [0, p).
 - ExtField: GF(r^nu), a degree-nu extension of any base field GF(r), prime
   or itself an extension.  Elements are stored as packed codes in
   [0, r^nu): code sum_i c_i * r^i, each c_i a base code, stands for the
   polynomial sum_i c_i * y^i, so every base element keeps its own code.
   Elementwise arithmetic goes through log, antilog and Zech-log tables;
   matrix products split the codes into their nu digit planes and run on
   the base field's kernel.

All elementwise operations are vectorized over numpy int64 arrays of codes
(plain Python ints work too).  Contexts are immutable after construction and
safe to share across threads.
"""

import functools
import math

import numpy as np

_INT64_MAX = (1 << 63) - 1

# PrimeField.matmul: multiply-adds up to which a direct int64 product beats
# a BLAS call, measured on OpenBLAS with one thread
_TINY = 1 << 13

# global field-operation counter, used by the benchmark harness; off until
# the first reset_op_count(), and while off no call site evaluates a size
_OPS = 0
_COUNTING = False


def op_count():
    return _OPS


def reset_op_count():
    """Zero the counter and switch counting on for the rest of the process."""
    global _OPS, _COUNTING
    _OPS = 0
    _COUNTING = True


def _bump(n):
    global _OPS
    _OPS += int(n)


def _sz(a):
    return a.size if isinstance(a, np.ndarray) else 1


def is_prime(n):
    """Deterministic Miller-Rabin, valid for all 64-bit n."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldError(ValueError):
    pass


class FieldCtx:
    """Common interface for prime and extension fields.

    Attributes:
        p: characteristic (prime)
        nu: degree over its base (1 for prime fields)
        q: cardinality, base.q**nu
        modulus: coefficients, in base codes, of the irreducible modulus
            over the base (None when nu=1)

    Two contexts are equal when they are the same extension tower: GF(4)
    extended by degree 2 and GF(2^2) have the same p and nu, but not q.
    """

    p = None
    nu = None
    q = None
    modulus = None

    def rand(self, rng, shape=None):
        """Uniform sample over all q elements (zero included)."""
        out = rng.integers(0, self.q, size=shape, dtype=np.int64)
        if _COUNTING:
            _bump(_sz(out))
        return out

    def rand_nonzero(self, rng, shape=None):
        out = rng.integers(1, self.q, size=shape, dtype=np.int64)
        if _COUNTING:
            _bump(_sz(out))
        return out

    def canonical(self, a, in_place=False):
        """The int64 array a with every code in [0, q).

        Returns a itself when it already is; otherwise a reduced copy, or a
        reduced in place when in_place is set.  The range check is one max
        over a viewed as unsigned, where a negative code lies above q too.
        """
        if a.size == 0 or a.view(np.uint64).max() < self.q:
            return a
        return self._reduce(a, a if in_place else None)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


class PrimeField(FieldCtx):

    def __init__(self, p):
        if p >= (1 << 62):
            raise FieldError("characteristic %d too large (must be < 2^62)" % p)
        if not is_prime(p):
            raise FieldError("%d is not prime" % p)
        self.p = int(p)
        self.nu = 1
        self.q = int(p)
        self.modulus = None
        self._key = (self.p,)
        # a product of two residues overflows int64 once (p-1)^2 > 2^63 - 1
        # (p > 3.04e9); mul falls back to object (bignum) arithmetic there
        self._big = (p - 1) ** 2 > _INT64_MAX
        # most products of residues an exact int64 / float64 sum can hold
        self._int_terms = _INT64_MAX // (p - 1) ** 2
        self._float_terms = (1 << 53) // (p - 1) ** 2

    def __repr__(self):
        return "GF(%d)" % self.p

    def _reduce(self, a, out):
        return np.remainder(a, self.p, out=out)

    def add(self, a, b):
        if _COUNTING:
            _bump(_sz(a))
        return (a + b) % self.p

    def sub(self, a, b):
        if _COUNTING:
            _bump(_sz(a))
        return (a - b) % self.p

    def neg(self, a):
        if _COUNTING:
            _bump(_sz(a))
        return (-a) % self.p

    def mul(self, a, b):
        if _COUNTING:
            _bump(np.broadcast(a, b).size)
        if self._big:
            r = (np.asarray(a, dtype=object) * np.asarray(b, dtype=object)) % self.p
            return r.astype(np.int64) if isinstance(r, np.ndarray) else int(r)
        return (a * b) % self.p

    def sinv(self, a):
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in %r" % self)
        if _COUNTING:
            _bump(1)
        return pow(a, -1, self.p)

    def spow(self, a, e):
        if _COUNTING:
            _bump(1)
        return pow(int(a), int(e), self.p)

    # scalar aliases (same code path as the vector ops for prime fields)
    smul = mul
    sadd = add
    ssub = sub
    sneg = neg

    def matmul(self, A, B):
        """A.B mod p for residue arrays A (m-by-l) and B (l-by-n).

        This is the one place where residues are multiplied.  A and B must
        hold residues in [0, p); the result is a new int64 array of
        residues.  The path depends on p and the shapes alone.  A product
        of residues is at most (p-1)^2, and each path sums at most t such
        terms before it reduces, with t fixed by an exact-integer bound:

         - int64, t (p-1)^2 <= 2^63 - 1: the direct product, for tiny
           products of at most _TINY multiply-adds;
         - float64 BLAS, t (p-1)^2 <= 2^53: for p < 2^24, where t >= 32;
         - 11-bit limbs for 2^24 < p < 2^31: the operand with fewer
           entries is split as x = 2^22 x2 + 2^11 x1 + x0, every limb below
           2^11, and its three limbs stacked against the other operand make
           one float64 product with terms below 2^11 2^31 = 2^42, so
           t = 2^11.  The three blocks fold back by Horner steps mod p;
         - Python ints (object dtype) for p >= 2^31.

        A longer inner dimension is cut into blocks of t, whose reduced
        products are summed mod p.
        """
        m, ell = A.shape
        n = B.shape[1]
        if _COUNTING:
            _bump(m * ell * n)
        if m * ell * n <= _TINY and ell <= self._int_terms:
            return (A @ B) % self.p
        if self.p >= 1 << 31:
            C = (A.astype(object) @ B.astype(object)) % self.p
            return C.astype(np.int64)
        if self.p < 1 << 24:
            kernel, t = self._mm_float, self._float_terms
        else:
            kernel, t = self._mm_limbs, 1 << 11
        C = kernel(A[:, :t], B[:t])
        for i in range(t, ell, t):
            C += kernel(A[:, i:i + t], B[i:i + t])
            C %= self.p
        return C

    def _mm_float(self, A, B):
        # reduced in place: one product-sized buffer fewer at the peak
        C = (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
        C %= self.p
        return C

    def _mm_limbs(self, A, B):
        if A.size > B.size:
            return self._mm_limbs(B.T, A.T).T
        m, p = A.shape[0], self.p
        limbs = np.concatenate((A >> 22, A >> 11 & 0x7FF, A & 0x7FF))
        C = (limbs.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
        # each block below 2^53 and the running residue times 2^11 below
        # 2^42, so every Horner step stays within int64
        r = C[:m] % p
        for k in (1, 2):
            r <<= 11
            r += C[k * m:(k + 1) * m]
            r %= p
        return r


class ExtField(FieldCtx):
    """GF(r^nu), a degree-nu extension of a base field GF(r), via packed
    codes plus log, antilog and Zech tables.

    Code sum_i c_i r^i, each c_i a base code, stands for sum_i c_i y^i mod
    the modulus, so a base element is its own code here: the constant
    term.  Products go through discrete logs to a fixed primitive element
    g, sums through the Zech logarithm zech[n] = log(1 + g^n):
    a + b = g^(log a + zech[log b - log a]).  The three int64 tables hold q
    entries each, so q is kept at desk scale (q <= 2^20 enforced, where
    they take 24 MiB).  Matrix products run on the base kernel over the nu
    digit planes of the codes (see matmul).  The modulus is always the
    first monic irreducible of degree nu over the base in code order, so
    two equal fields (same base, same nu) give every code the same meaning.
    """

    def __init__(self, base, nu):
        if nu < 2:
            raise FieldError("extension degree must be >= 2")
        q = base.q ** nu
        if q > (1 << 20):
            raise FieldError("extension field too large: %r^%d" % (base, nu))
        self.base = base
        self.p = base.p
        self.nu = int(nu)
        self.q = int(q)
        self._key = (base._key, self.nu)
        self.modulus = tuple(_find_irreducible(base, nu))
        self._pw = base.q ** np.arange(nu, dtype=np.int64)
        self._q1 = q - 1
        # -1 = g^((q-1)/2) for odd p
        self._half = (q - 1) // 2
        # _fold[t, i*nu + j]: coefficient of y^t in y^(i+j) mod the modulus
        y = [[0] * i + [1] for i in range(nu)]
        self._fold = np.array([_polmul_mod(base, yi, yj, self.modulus)
                               for yi in y for yj in y],
                              dtype=np.int64).T.copy()
        self._build_tables()

    def __repr__(self):
        b = repr(self.base)[3:-1]
        return "GF(%s^%d)" % (b if self.base.nu == 1 else "(%s)" % b, self.nu)

    # -- code <-> coefficient vector --------------------------------------

    def code(self, coeffs):
        r = self.base.q
        return sum((int(v) % r) * r ** i for i, v in enumerate(coeffs))

    def coeffs(self, code):
        r = self.base.q
        return [int(code) // r ** i % r for i in range(self.nu)]

    def planes(self, A):
        """[A_0; ...; A_{nu-1}]: the base-code digits of the code array A
        (m-by-n), stacked by rows into a nu*m-by-n array."""
        # digit i of a is a // r^i - r * (a // r^(i+1))
        D = A // self._pw[:, None, None]
        D[:-1] -= D[1:] * self.base.q
        return D.reshape(self.nu * A.shape[0], A.shape[1])

    def pack(self, D):
        """The codes sum_i D_i r^i of the planes D = [D_0; ...; D_{nu-1}]."""
        m, n = D.shape[0] // self.nu, D.shape[1]
        return (self._pw @ D.reshape(self.nu, m * n)).reshape(m, n)

    def _reduce(self, a, out):
        raise FieldError("codes of %r must lie in [0, %d)" % (self, self.q))

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        if _COUNTING:
            _bump(max(_sz(a), _sz(b)))
        la = self._log[a]
        lb = self._log[b]
        z = self._zech[(lb - la) % self._q1]
        r = np.where(z < 0, 0, self._exp[(la + z) % self._q1])
        r = np.where(la < 0, b, np.where(lb < 0, a, r))
        return r if r.ndim else int(r)

    def sub(self, a, b):
        return self.add(a, self._neg(b))

    def neg(self, a):
        if _COUNTING:
            _bump(_sz(a))
        return self._neg(a)

    def _neg(self, a):
        if self.p == 2:
            r = np.array(a, dtype=np.int64)
        else:
            la = self._log[a]
            r = np.where(la < 0, 0, self._exp[(la + self._half) % self._q1])
        return r if r.ndim else int(r)

    def mul(self, a, b):
        if _COUNTING:
            _bump(np.broadcast(a, b).size)
        la = self._log[a]
        lb = self._log[b]
        r = np.where((la < 0) | (lb < 0), 0, self._exp[(la + lb) % self._q1])
        return r if r.ndim else int(r)

    # scalar ops: Python ints read from the tables, no numpy temporaries

    def sadd(self, a, b):
        if _COUNTING:
            _bump(1)
        a, b = int(a), int(b)
        if a == 0 or b == 0:
            return a + b
        la = self._log.item(a)
        z = self._zech.item((self._log.item(b) - la) % self._q1)
        return 0 if z < 0 else self._exp.item((la + z) % self._q1)

    def ssub(self, a, b):
        return self.sadd(a, self._sneg(int(b)))

    def sneg(self, a):
        if _COUNTING:
            _bump(1)
        return self._sneg(int(a))

    def _sneg(self, a):
        if a == 0 or self.p == 2:
            return a
        return self._exp.item((self._log.item(a) + self._half) % self._q1)

    def smul(self, a, b):
        if _COUNTING:
            _bump(1)
        la = self._log.item(a)
        lb = self._log.item(b)
        if la < 0 or lb < 0:
            return 0
        return self._exp.item((la + lb) % self._q1)

    def sinv(self, a):
        la = self._log.item(a)
        if la < 0:
            raise ZeroDivisionError("inverse of zero in %r" % self)
        if _COUNTING:
            _bump(1)
        return self._exp.item(-la % self._q1)

    def spow(self, a, e):
        e = int(e)
        if e == 0:
            return 1
        la = self._log.item(a)
        if la < 0:
            if e < 0:
                raise ZeroDivisionError
            return 0
        if _COUNTING:
            _bump(1)
        return self._exp.item(la * e % self._q1)

    def matmul(self, A, B):
        """A.B for code arrays A (m-by-l) and B (l-by-n).

        The nu^2 products of the digit planes, A_i.B_j, come from one base
        product planes(A).[B_0 ... B_{nu-1}], and one more base product by
        _fold maps them to the planes of A.B: block (i, j) goes to y^(i+j),
        reduced by the modulus.  Both are exact by the base's own bounds.
        """
        m, ell = A.shape
        n = B.shape[1]
        nu, base = self.nu, self.base
        # m*ell*n field ops net, once the two base products below add
        # nu^2 m*ell*n and nu^3 m*n
        if _COUNTING:
            _bump(m * ell * n - nu * nu * (m * ell * n + nu * m * n))
        C = base.matmul(self.planes(A), self.planes(B.T).T)
        C = C.reshape(nu, m, nu, n).transpose(0, 2, 1, 3).reshape(
            nu * nu, m * n)
        return self.pack(base.matmul(self._fold, C).reshape(nu * m, n))

    # -- construction helpers ---------------------------------------------

    def _build_tables(self):
        """exp[i] = g^i, log (-1 at 0) and zech[n] = log(1 + g^n).

        With M the nu-by-nu matrix of multiplication by g over the base,
        the block of b powers from g^s on is M^s times the coefficient
        vectors of g^0..g^(b-1), one base product; no temporary is larger
        than a block.
        """
        base, nu, q = self.base, self.nu, self.q
        g = self.coeffs(self._find_generator())
        M = np.array([_polmul_mod(base, [0] * j + [1], g, self.modulus)
                      for j in range(nu)], dtype=np.int64).T
        b = math.isqrt(q - 1) + 1
        G = np.empty((nu, b), dtype=np.int64)
        Mb = np.eye(nu, dtype=np.int64)
        for j in range(b):
            G[:, j] = Mb[:, 0]
            Mb = base.matmul(M, Mb)
        exp = np.empty(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        Ms = np.eye(nu, dtype=np.int64)
        for s in range(0, q - 1, b):
            codes = self.pack(base.matmul(Ms, G))[0, :q - 1 - s]
            exp[s:s + b] = codes
            log[codes] = np.arange(s, s + len(codes))
            Ms = base.matmul(Mb, Ms)
        # g generates all q - 1 units only when the modulus is irreducible
        if log[1:].min() < 0:
            raise FieldError("modulus %s is not irreducible over %r"
                             % (list(self.modulus), base))
        zech = np.empty(q - 1, dtype=np.int64)
        for s in range(0, q - 1, b):
            # 1 + g^n: add 1 to the constant digit
            c = exp[s:s + b]
            c0 = c % base.q
            zech[s:s + b] = log[c - c0 + base.add(c0, 1)]
        self._exp = exp
        self._log = log
        self._zech = zech

    def _find_generator(self):
        q = self.q
        one = self.coeffs(1)
        fac = _prime_factors(q - 1)
        for cand in range(2, q):
            cc = self.coeffs(cand)
            if all(_polpow(self.base, cc, (q - 1) // f, self.modulus) != one
                   for f in fac):
                return cand
        raise FieldError("no generator found (modulus not irreducible?)")


def _prime_factors(n):
    fac = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac.add(d)
            n //= d
        d += 1
    if n > 1:
        fac.add(n)
    return sorted(fac)


# Polynomials over a field F: lists of F's codes, lowest degree first,
# computed with F's scalar ops.

def _poly_gcd_is_one(F, f, g):
    """Whether gcd(f, g) over F is a unit."""
    def deg(h):
        for i in range(len(h) - 1, -1, -1):
            if h[i]:
                return i
        return -1

    f = list(f)
    g = list(g)
    while deg(g) >= 0:
        df, dg = deg(f), deg(g)
        if df < dg:
            f, g = g, f
            continue
        lead = F.smul(f[df], F.sinv(g[dg]))
        for i in range(dg + 1):
            f[df - dg + i] = F.ssub(f[df - dg + i], F.smul(lead, g[i]))
        f, g = g, f[:deg(f) + 1] if deg(f) >= 0 else [0]
    return deg(f) == 0


def _polmul_mod(F, f, g, modulus):
    """f.g mod the monic modulus over F."""
    nu = len(modulus) - 1
    out = [0] * (2 * nu - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = F.sadd(out[i + j], F.smul(fi, gj))
    for d in range(len(out) - 1, nu - 1, -1):
        c = out[d]
        if c:
            for i in range(nu):
                out[d - nu + i] = F.ssub(out[d - nu + i],
                                         F.smul(c, modulus[i]))
    return out[:nu]


def _polpow(F, f, e, modulus):
    """f^e mod the monic modulus over F, by square-and-multiply."""
    acc = [1] + [0] * (len(modulus) - 2)
    while e:
        if e & 1:
            acc = _polmul_mod(F, acc, f, modulus)
        f = _polmul_mod(F, f, f, modulus)
        e >>= 1
    return acc


def _is_irreducible(F, coeffs):
    """Monic coeffs (degree nu >= 2): irreducible over F?"""
    nu, r = len(coeffs) - 1, F.q
    x = [0, 1] + [0] * (nu - 2)
    # x^(r^nu) == x mod f, and gcd(x^(r^i) - x, f) = 1 for i <= nu/2
    if _polpow(F, x, r ** nu, coeffs) != x:
        return False
    for i in range(1, nu // 2 + 1):
        xri = _polpow(F, x, r ** i, coeffs)
        diff = [F.ssub(a, b) for a, b in zip(xri, x)]
        if not _poly_gcd_is_one(F, diff, list(coeffs)):
            return False
    return True


def _find_irreducible(F, nu):
    """First monic irreducible of degree nu over F in code order."""
    r = F.q
    for t in range(r ** nu):
        coeffs = [t // r ** i % r for i in range(nu)] + [1]
        if _is_irreducible(F, coeffs):
            return coeffs
    raise FieldError("no irreducible polynomial found")  # cannot happen


_FIELD_CACHE = {}


def make_prime_field(p):
    """GF(p) context; rejects non-prime p with a diagnostic."""
    key = int(p)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = PrimeField(p)
    return _FIELD_CACHE[key]


def _extension(base, nu):
    """The degree-nu extension of base with the canonical (first in code
    order) modulus, one per (base, nu)."""
    if nu == 1:
        return base
    key = (base, nu)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = ExtField(base, nu)
    return _FIELD_CACHE[key]


def make_ext_field(p, nu):
    """GF(p^nu) over GF(p)."""
    return _extension(make_prime_field(p), int(nu))


def extension_degree(q, m):
    """Least d with q^d > m: the degree of extend_field over a field of q
    elements."""
    return next(d for d in range(1, m + 2) if q ** d > m)


def extend_field(base, m):
    """Smallest-degree extension of `base` with more than m elements.

    The degree is ceil(log_q(m+1)) over the base cardinality q.  It is
    built over base itself, so base elements keep their codes there.
    """
    if m < base.q:
        raise FieldError("no extension needed: m=%d < #F=%d" % (m, base.q))
    return _extension(base, extension_degree(base.q, m))


def embed_up(base, big, arr):
    """base codes as codes of big, a field extend_field built over base:
    the same codes."""
    return arr


def coerce_down(base, big, arr):
    """Inverse of embed_up: raises FieldError unless every code of arr,
    an element of big, lies in base, that is below base.q."""
    if arr.size and arr.max() >= base.q:
        raise FieldError("element of %r outside %r" % (big, base))
    return arr


class PowTable:
    """Powers theta^0..theta^(m-1) of a high-order element.

    All m powers are pairwise distinct (element_of_order_at_least checks
    this), so the index of a power in the table is its exponent.
    """

    __slots__ = ("ctx", "theta", "m", "powers")

    def __init__(self, ctx, theta, m, powers):
        self.ctx = ctx
        self.theta = int(theta)
        self.m = int(m)
        self.powers = powers


# One table per (field, m), equal fields sharing it: the scan is a Python
# loop of up to m products per candidate, 0.2 ms at GF(65537), m = 1024,
# and 0.6 ms at GF(7^4), m = 512, on one thread of a 2-core x86-64, paid
# otherwise by every correction loop of a crout_ec call that recovers.
@functools.lru_cache(maxsize=64)
def element_of_order_at_least(ctx, m):
    """theta of multiplicative order >= m, with its power table.

    Codes 1, 2, ... < q are tried in order, so theta is the least code
    that qualifies; the scan ends, since a generator of the cyclic unit
    group qualifies when q > m.  The table is cached and shared, so its
    powers are read-only.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if ctx.q <= m:
        raise FieldError("field of size %d too small for order >= %d"
                         % (ctx.q, m))
    powers = np.ones(m, dtype=np.int64)
    theta, cur, j = 1, 1, 1
    while j < m:
        cur = ctx.smul(cur, theta)
        if cur == 1:  # theta has order j < m: try the next code
            theta, j = theta + 1, 1
        else:
            powers[j], j = cur, j + 1
    powers.flags.writeable = False  # shared by every caller
    return PowTable(ctx, theta, m, powers)
