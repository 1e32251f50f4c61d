"""Finite field contexts.

Two kinds of field are supported:

 - PrimeField: GF(p) with p prime, elements stored as int64 residues in [0, p).
 - ExtField: GF(p^nu), elements stored as packed base-p digit codes in
   [0, p^nu); code sum_i c_i * p^i stands for the polynomial sum_i c_i * x^i.
   Elementwise arithmetic goes through log, antilog and Zech-log tables;
   matrix products split the codes into digit planes and run on the
   PrimeField kernel.

All elementwise operations are vectorized over numpy int64 arrays of codes
(plain Python ints work too).  Contexts are immutable after construction and
safe to share across threads.
"""

import math

import numpy as np

_INT64_MAX = (1 << 63) - 1

# PrimeField.matmul: multiply-adds up to which a direct int64 product beats
# a BLAS call, and the row (or col) count up to which splitting one operand
# beats splitting both; both measured on OpenBLAS with one thread
_TINY = 1 << 13
_NARROW = 8

# global field-operation counter, used by the benchmark harness
_OPS = 0


def op_count():
    return _OPS


def reset_op_count():
    global _OPS
    _OPS = 0


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
        nu: extension degree (1 for prime fields)
        q: cardinality p**nu
        modulus: coefficient list of the irreducible modulus (None when nu=1)
    """

    p = None
    nu = None
    q = None
    modulus = None

    def rand(self, rng, shape=None):
        """Uniform sample over all q elements (zero included)."""
        out = rng.integers(0, self.q, size=shape, dtype=np.int64)
        _bump(_sz(out))
        return out

    def rand_nonzero(self, rng, shape=None):
        out = rng.integers(1, self.q, size=shape, dtype=np.int64)
        _bump(_sz(out))
        return out

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.int64)

    def canonical(self, a, in_place=False):
        """The int64 array a with every code in [0, q).

        Returns a itself when it already is; otherwise a reduced copy, or a
        reduced in place when in_place is set.  The range check is one max
        over a viewed as unsigned, where a negative code lies above q too.
        """
        if a.size == 0 or a.view(np.uint64).max() < self.q:
            return a
        return self._reduce(a, a if in_place else None)

    def eye(self, n):
        return np.eye(n, dtype=np.int64)

    def dot(self, a, b):
        return int(self.matmul(a.reshape(1, -1), b.reshape(-1, 1))[0, 0])

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and self.p == other.p and self.nu == other.nu)

    def __hash__(self):
        return hash((self.p, self.nu))


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
        _bump(_sz(a))
        return (a + b) % self.p

    def sub(self, a, b):
        _bump(_sz(a))
        return (a - b) % self.p

    def neg(self, a):
        _bump(_sz(a))
        return (-a) % self.p

    def mul(self, a, b):
        _bump(max(_sz(a), _sz(b)))
        if self._big:
            r = (np.asarray(a, dtype=object) * np.asarray(b, dtype=object)) % self.p
            return r.astype(np.int64) if isinstance(r, np.ndarray) else int(r)
        return (a * b) % self.p

    def sinv(self, a):
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in %r" % self)
        _bump(1)
        return pow(a, self.p - 2, self.p)

    def spow(self, a, e):
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
         - 16-bit halves for 2^24 < p < 2^31, x = 2^16 xh + xl with
           xh < 2^15 and xl < 2^16.  When one side of the product has at
           most _NARROW rows (or cols), or the product is tiny, only the
           operand with fewer entries is split: two int64 products with
           terms below 2^47, so t = 2^16.  Otherwise both are split and
           [Ah; Al].[Bh Bl] is one float64 product with terms below 2^32,
           so t = 2^21;
         - Python ints (object dtype) for p >= 2^31.

        A longer inner dimension is cut into blocks of t, whose reduced
        products are summed mod p.
        """
        m, ell = A.shape
        n = B.shape[1]
        _bump(m * ell * n)
        tiny = m * ell * n <= _TINY
        if tiny and ell <= self._int_terms:
            return (A @ B) % self.p
        if self.p >= 1 << 31:
            C = (A.astype(object) @ B.astype(object)) % self.p
            return C.astype(np.int64)
        if self.p < 1 << 24:
            kernel, t = self._mm_float, self._float_terms
        elif tiny or min(m, n) <= _NARROW:
            kernel, t = self._mm_split_one, 1 << 16
        else:
            kernel, t = self._mm_split_both, 1 << 21
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

    def _mm_split_one(self, A, B):
        if A.size > B.size:
            return self._mm_split_one(B.T, A.T).T
        p = self.p
        return ((A >> 16) @ B % p * 65536 + (A & 0xFFFF) @ B % p) % p

    def _mm_split_both(self, A, B):
        m, n = A.shape[0], B.shape[1]
        A2 = np.concatenate((A >> 16, A & 0xFFFF)).astype(np.float64)
        B2 = np.concatenate((B >> 16, B & 0xFFFF), axis=1).astype(np.float64)
        C = (A2 @ B2).astype(np.int64)
        p = self.p
        # 2^32 hh + 2^16 (hl + lh) + ll, each term kept below 2^62
        return (C[:m, :n] % p * ((1 << 32) % p)
                + (C[:m, n:] + C[m:, :n]) % p * 65536 + C[m:, n:]) % p


class ExtField(FieldCtx):
    """GF(p^nu) via packed digit codes plus log, antilog and Zech tables.

    Codes stay packed.  Products go through discrete logs to a fixed
    primitive element g, sums through the Zech logarithm
    zech[n] = log(1 + g^n): a + b = g^(log a + zech[log b - log a]).  The
    three int64 tables hold q entries each, so q is kept at desk scale
    (q <= 2^20 enforced, where they take 24 MiB).  Matrix products run on
    the prime kernel over digit planes (see matmul).
    """

    def __init__(self, p, nu, modulus=None):
        if not is_prime(p):
            raise FieldError("%d is not prime" % p)
        if nu < 2:
            raise FieldError("extension degree must be >= 2")
        q = p ** nu
        if q > (1 << 20):
            raise FieldError("extension field too large: %d^%d" % (p, nu))
        self.p = int(p)
        self.nu = int(nu)
        self.q = int(q)
        if modulus is None:
            modulus = _find_irreducible(p, nu)
        self.modulus = tuple(int(c) % p for c in modulus)
        if len(self.modulus) != nu + 1 or self.modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree %d" % nu)
        self._pw = np.array([p ** i for i in range(nu)], dtype=np.int64)
        self._base = make_prime_field(p)
        self._q1 = q - 1
        # -1 = g^((q-1)/2) for odd p
        self._half = (q - 1) // 2
        # _fold[t, i*nu + j]: coefficient of x^t in x^(i+j) mod the modulus
        x = [[0] * i + [1] for i in range(nu)]
        self._fold = np.array([_polmul_mod(p, xi, xj, self.modulus)
                               for xi in x for xj in x], dtype=np.int64).T.copy()
        self._build_tables()

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.nu)

    # -- code <-> coefficient vector --------------------------------------

    def code(self, coeffs):
        c = 0
        for i, v in enumerate(coeffs):
            c += (int(v) % self.p) * self.p ** i
        return c

    def coeffs(self, code):
        code = int(code)
        out = []
        for _ in range(self.nu):
            out.append(code % self.p)
            code //= self.p
        return out

    def _reduce(self, a, out):
        raise FieldError("codes of %r must lie in [0, %d)" % (self, self.q))

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
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
        _bump(max(_sz(a), _sz(b)))
        la = self._log[a]
        lb = self._log[b]
        r = np.where((la < 0) | (lb < 0), 0, self._exp[(la + lb) % self._q1])
        return r if r.ndim else int(r)

    # scalar ops: Python ints read from the tables, no numpy temporaries

    def sadd(self, a, b):
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
        _bump(1)
        return self._sneg(int(a))

    def _sneg(self, a):
        if a == 0 or self.p == 2:
            return a
        return self._exp.item((self._log.item(a) + self._half) % self._q1)

    def smul(self, a, b):
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
        _bump(1)
        return self._exp.item(la * e % self._q1)

    def matmul(self, A, B):
        """A.B for code arrays A (m-by-l) and B (l-by-n).

        The nu^2 products of the base-p digit planes, A_i.B_j, come from one
        PrimeField.matmul, [A_0; ...; A_{nu-1}].[B_0 ... B_{nu-1}], exact by
        its own bounds.  _fold maps them to the coefficients of the product:
        block (i, j) goes to x^(i+j), reduced by the modulus.  Exact-integer
        bound: _fold sums nu^2 products of two residues, below nu^2 p^2 <=
        2^29, as q = p^nu <= 2^20 gives nu <= 20 and p^2 <= 2^20.
        """
        m, ell = A.shape
        n = B.shape[1]
        p, nu = self.p, self.nu
        # m*ell*n field ops net, once base.matmul below adds nu^2 m*ell*n
        _bump(m * ell * n * (1 - nu * nu))
        # digit i of a is a // p^i - p * (a // p^(i+1))
        Ad = A // self._pw[:, None, None]
        Ad[:-1] -= Ad[1:] * p
        Bd = B[:, None, :] // self._pw[:, None]
        Bd[:, :-1] -= Bd[:, 1:] * p
        C = self._base.matmul(Ad.reshape(nu * m, ell), Bd.reshape(ell, nu * n))
        C = self._fold @ C.reshape(nu, m, nu, n).transpose(0, 2, 1, 3).reshape(
            nu * nu, m * n)
        C %= p
        return (self._pw @ C).reshape(m, n)

    def coerce_array(self, a, base):
        """Map degree-0 codes back to the base field; raise on non-constants."""
        if base.p != self.p or base.nu != 1:
            raise FieldError("can only coerce down to the prime subfield")
        arr = np.asarray(a)
        if np.any(arr >= self.p):
            raise FieldError("non-constant element cannot be coerced to GF(%d)"
                             % self.p)
        return arr

    # -- construction helpers ---------------------------------------------

    def _build_tables(self):
        """exp[i] = g^i, log (-1 at 0) and zech[n] = log(1 + g^n).

        With M the nu-by-nu matrix of multiplication by g over GF(p), the
        block of b powers from g^s on is M^s times the coefficient vectors
        of g^0..g^(b-1); no temporary is larger than a block.
        """
        p, nu, q = self.p, self.nu, self.q
        g = self.coeffs(self._find_generator())
        M = np.array([_polmul_mod(p, [0] * j + [1], g, self.modulus)
                      for j in range(nu)], dtype=np.int64).T
        b = math.isqrt(q - 1) + 1
        G = np.empty((nu, b), dtype=np.int64)
        Mb = np.eye(nu, dtype=np.int64)
        for j in range(b):
            G[:, j] = Mb[:, 0]
            Mb = M @ Mb % p
        exp = np.empty(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        Ms = np.eye(nu, dtype=np.int64)
        for s in range(0, q - 1, b):
            codes = (self._pw @ (Ms @ G % p))[:q - 1 - s]
            exp[s:s + b] = codes
            log[codes] = np.arange(s, s + len(codes))
            Ms = Mb @ Ms % p
        # g generates all q - 1 units only when the modulus is irreducible
        if log[1:].min() < 0:
            raise FieldError("modulus %s is not irreducible over GF(%d)"
                             % (list(self.modulus), self.p))
        zech = np.empty(q - 1, dtype=np.int64)
        for s in range(0, q - 1, b):
            # 1 + g^n: add 1 to the constant digit
            c = exp[s:s + b]
            c0 = c % p
            zech[s:s + b] = log[c - c0 + (c0 + 1) % p]
        self._exp = exp
        self._log = log
        self._zech = zech

    def _find_generator(self):
        q = self.q
        one = self.coeffs(1)
        fac = _prime_factors(q - 1)
        for cand in range(2, q):
            cc = self.coeffs(cand)
            if all(_polpow(self.p, cc, (q - 1) // f, self.modulus) != one
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


def _poly_gcd_is_one(p, f, g):
    """gcd over GF(p) of coefficient lists, low degree first."""
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
        lead = f[df] * pow(g[dg], p - 2, p) % p
        for i in range(dg + 1):
            f[df - dg + i] = (f[df - dg + i] - lead * g[i]) % p
        f, g = g, f[:deg(f) + 1] if deg(f) >= 0 else [0]
    return deg(f) == 0


def _polmul_mod(p, f, g, modulus):
    """f.g mod the monic modulus over GF(p); coefficient lists, low first."""
    nu = len(modulus) - 1
    out = [0] * (2 * nu - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    for d in range(len(out) - 1, nu - 1, -1):
        c = out[d]
        if c:
            for i in range(nu):
                out[d - nu + i] = (out[d - nu + i] - c * modulus[i]) % p
    return out[:nu]


def _polpow(p, f, e, modulus):
    """f^e mod the monic modulus over GF(p), by square-and-multiply."""
    acc = [1] + [0] * (len(modulus) - 2)
    while e:
        if e & 1:
            acc = _polmul_mod(p, acc, f, modulus)
        f = _polmul_mod(p, f, f, modulus)
        e >>= 1
    return acc


def _is_irreducible(p, coeffs):
    """Monic coeffs (low first, degree nu >= 2): irreducible over GF(p)?"""
    nu = len(coeffs) - 1
    x = [0, 1] + [0] * (nu - 2)
    # x^(p^nu) == x mod f, and gcd(x^(p^i) - x, f) = 1 for i <= nu/2
    if _polpow(p, x, p ** nu, coeffs) != x:
        return False
    for i in range(1, nu // 2 + 1):
        xpi = _polpow(p, x, p ** i, coeffs)
        diff = [(a - b) % p for a, b in zip(xpi, x)]
        if not _poly_gcd_is_one(p, diff, list(coeffs)):
            return False
    return True


def _find_irreducible(p, nu):
    """First monic irreducible of degree nu in lexicographic code order."""
    for t in range(p ** nu):
        coeffs = [t // p ** i % p for i in range(nu)] + [1]
        if _is_irreducible(p, coeffs):
            return coeffs
    raise FieldError("no irreducible polynomial found")  # cannot happen


_FIELD_CACHE = {}


def make_prime_field(p):
    """GF(p) context; rejects non-prime p with a diagnostic."""
    key = (int(p), 1)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = PrimeField(p)
    return _FIELD_CACHE[key]


def make_ext_field(p, nu):
    """GF(p^nu) with the canonical (lexicographically first) modulus."""
    if nu == 1:
        return make_prime_field(p)
    key = (int(p), int(nu))
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = ExtField(p, nu)
    return _FIELD_CACHE[key]


def extend_field(base, m):
    """Smallest-degree extension of `base` with more than m elements.

    The degree is ceil(log_q(m+1)) over the base cardinality q.  Base-field
    elements embed as degree-0 polynomials; `coerce_down` maps them back.
    """
    if m < base.q:
        raise FieldError("no extension needed: m=%d < #F=%d" % (m, base.q))
    nu = 1
    qq = base.q
    while qq <= m:
        qq *= base.q
        nu += 1
    if base.nu == 1:
        return make_ext_field(base.p, nu)
    # extension of an extension: build GF(p^(a*nu)) and embed via a root of
    # the base modulus
    big = make_ext_field(base.p, base.nu * nu)
    _embedding(base, big)
    return big


_EMBED_CACHE = {}


def _embedding(base, big):
    """Embedding table base -> big for nested extensions."""
    key = (base.p, base.nu, big.nu)
    if key in _EMBED_CACHE:
        return _EMBED_CACHE[key]
    # find a root of the base modulus in the big field
    root = None
    for cand in range(big.q):
        acc = 0
        for c in reversed(base.modulus):
            acc = big.sadd(big.smul(acc, cand), c % big.p)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise FieldError("no embedding of %r into %r" % (base, big))
    table = np.zeros(base.q, dtype=np.int64)
    for code in range(base.q):
        acc = 0
        rp = 1
        for c in base.coeffs(code):
            acc = big.sadd(acc, big.smul(c, rp))
            rp = big.smul(rp, root)
        table[code] = acc
    inverse = np.full(big.q, -1, dtype=np.int64)
    inverse[table] = np.arange(base.q)
    _EMBED_CACHE[key] = (table, inverse)
    return _EMBED_CACHE[key]


def embed_up(base, big, arr):
    """Map an array of base-field codes into the bigger field."""
    if base == big:
        return arr
    if base.nu == 1:
        return arr  # constants keep their code
    table, _ = _embedding(base, big)
    return table[arr]


def coerce_down(base, big, arr):
    """Inverse of embed_up; raises FieldError on non-embedded elements."""
    if base == big:
        return arr
    if base.nu == 1:
        return big.coerce_array(arr, base)
    _, inverse = _embedding(base, big)
    out = inverse[arr]
    if np.any(out < 0):
        raise FieldError("element not in the embedded subfield")
    return out


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


def element_of_order_at_least(ctx, m, rng=None):
    """Pick theta with multiplicative order >= m and build its power table.

    Candidates 2, 3, ... are tried in code order for reproducibility; after 64
    deterministic misses we switch to random trials (a generator of the cyclic
    unit group always qualifies since #F > m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if ctx.q <= m:
        raise FieldError("field of size %d too small for order >= %d"
                         % (ctx.q, m))
    if m == 1:
        return PowTable(ctx, 1, 1, np.array([1], dtype=np.int64))

    def try_theta(theta):
        powers = np.empty(m, dtype=np.int64)
        powers[0] = 1
        cur = 1
        for j in range(1, m):
            cur = ctx.smul(cur, theta)
            if cur == 1:
                return None  # order j < m
            powers[j] = cur
        return powers

    candidates = list(range(2, min(ctx.q, 2 + 64)))
    for theta in candidates:
        powers = try_theta(theta)
        if powers is not None:
            return PowTable(ctx, theta, m, powers)
    rng = np.random.default_rng(0) if rng is None else rng
    for _ in range(4 * ctx.q):
        theta = int(rng.integers(2, ctx.q))
        powers = try_theta(theta)
        if powers is not None:
            return PowTable(ctx, theta, m, powers)
    raise FieldError("no element of order >= %d found in %r" % (m, ctx))
