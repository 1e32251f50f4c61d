"""Field contexts: arithmetic, extensions, high-order elements, sampling."""

import ast
import copy
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eclu import ff
from eclu.ff import (FieldError, PowTable, element_of_order_at_least,
                     extend_field, make_ext_field, make_prime_field)


def test_prime_field_basics():
    f7 = make_prime_field(7)
    assert f7.q == 7 and f7.p == 7 and f7.nu == 1
    assert f7.smul(3, 5) == 1
    assert f7.sinv(3) == 5


def test_gf2():
    f2 = make_prime_field(2)
    assert f2.q == 2
    assert f2.sadd(1, 1) == 0
    assert f2.sinv(1) == 1


def test_large_prime_inverse():
    f = make_prime_field(65537)
    assert f.sinv(2) == 32769
    assert f.smul(2, 32769) == 1


def test_nonprime_rejected():
    for bad in (1, 4, 6, 91, 65536):
        with pytest.raises(FieldError):
            make_prime_field(bad)


def test_extend_gf2_m4():
    f2 = make_prime_field(2)
    big = extend_field(f2, 4)
    assert big.p == 2 and big.nu == 3 and big.q == 8


def test_extend_gf3_m3():
    f3 = make_prime_field(3)
    big = extend_field(f3, 3)
    assert big.p == 3 and big.nu == 2 and big.q == 9


def test_extend_not_needed_rejected():
    f7 = make_prime_field(7)
    with pytest.raises(FieldError):
        extend_field(f7, 6)


def test_theta_gf7_m3():
    f7 = make_prime_field(7)
    tab = element_of_order_at_least(f7, 3)
    # 6 has order 2 (6*6 = 36 = 1 mod 7) and must never be chosen for m=3
    assert tab.theta != 6
    assert len(set(int(v) for v in tab.powers)) == 3
    # the table really holds consecutive powers
    for j in range(1, 3):
        assert int(tab.powers[j]) == f7.smul(int(tab.powers[j - 1]), tab.theta)


def test_theta_gf5_m4():
    f5 = make_prime_field(5)
    tab = element_of_order_at_least(f5, 4)
    assert tab.theta == 2  # first candidate tried, order 4: 1,2,4,3
    assert [int(v) for v in tab.powers] == [1, 2, 4, 3]


def test_theta_m1():
    f2 = make_prime_field(2)
    tab = element_of_order_at_least(f2, 1)
    assert tab.theta == 1 and tab.m == 1


def test_theta_too_small_field():
    f2 = make_prime_field(2)
    with pytest.raises(FieldError):
        element_of_order_at_least(f2, 2)


@pytest.mark.parametrize("make", [lambda: make_prime_field(65537),
                                  lambda: make_ext_field(7, 3)],
                         ids=["65537", "343"])
def test_equal_fields_share_one_power_table(make):
    F = make()
    tab = element_of_order_at_least(F, 200)
    assert tab is element_of_order_at_least(copy.deepcopy(F), 200)
    assert not tab.powers.flags.writeable


def test_powtable_dlog_exhaustive():
    # the table index of every power is its discrete log to base theta
    f = make_prime_field(65537)
    tab = element_of_order_at_least(f, 200)
    powers = [int(v) for v in tab.powers]
    assert len(powers) == 200 and len(set(powers)) == 200
    assert powers[0] == 1
    for j in range(1, 200):
        assert powers[j] == f.smul(powers[j - 1], tab.theta)


def test_sampling_gf2_range():
    f2 = make_prime_field(2)
    rng = np.random.default_rng(0)
    draws = f2.rand(rng, 1000)
    assert set(np.unique(draws)) <= {0, 1}


def test_sampling_uniform_gf7():
    f7 = make_prime_field(7)
    rng = np.random.default_rng(1)
    draws = f7.rand(rng, 7000)
    counts = np.bincount(draws, minlength=7)
    # 5 sigma around the expected 1000 per residue
    sigma = np.sqrt(7000 * (1 / 7) * (6 / 7))
    assert np.all(np.abs(counts - 1000) < 5 * sigma)


def test_sampling_deterministic():
    f = make_prime_field(65537)
    a = f.rand(np.random.default_rng(42), 100)
    b = f.rand(np.random.default_rng(42), 100)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("ctx", [
    make_prime_field(7), make_prime_field(65537),
    make_ext_field(2, 3), make_ext_field(3, 2),
])
def test_field_axioms_random(ctx):
    rng = np.random.default_rng(3)
    x = ctx.rand(rng, 1000)
    y = ctx.rand(rng, 1000)
    z = ctx.rand(rng, 1000)
    assert np.array_equal(ctx.add(x, y), ctx.add(y, x))
    assert np.array_equal(ctx.mul(x, y), ctx.mul(y, x))
    assert np.array_equal(ctx.add(ctx.add(x, y), z), ctx.add(x, ctx.add(y, z)))
    assert np.array_equal(ctx.mul(ctx.mul(x, y), z), ctx.mul(x, ctx.mul(y, z)))
    assert np.array_equal(ctx.mul(x, ctx.add(y, z)),
                          ctx.add(ctx.mul(x, y), ctx.mul(x, z)))


@pytest.mark.parametrize("ctx", [
    make_prime_field(2), make_prime_field(7), make_prime_field(127),
    make_prime_field(509), make_ext_field(2, 3), make_ext_field(2, 8),
    make_ext_field(3, 2), make_ext_field(5, 2), make_ext_field(7, 3),
])
def test_inverses_exhaustive_small(ctx):
    assert ctx.q <= 512
    for x in range(1, ctx.q):
        assert ctx.smul(x, ctx.sinv(x)) == 1


@pytest.mark.parametrize("p,base_nu,m", [(2, 3, 10), (3, 2, 10), (2, 1, 5)])
def test_embed_coerce_roundtrip(p, base_nu, m):
    base = make_ext_field(p, base_nu) if base_nu > 1 else make_prime_field(p)
    big = extend_field(base, m)
    codes = np.arange(base.q, dtype=np.int64)
    up = ff.embed_up(base, big, codes)
    back = ff.coerce_down(base, big, up)
    assert np.array_equal(back, codes)


def test_embedding_is_homomorphism():
    base = make_ext_field(2, 3)
    big = extend_field(base, base.q)  # degree 2 over base
    assert big.base is base and big.nu == 2 and big.q == base.q ** 2
    codes = np.arange(base.q, dtype=np.int64)
    up = ff.embed_up(base, big, codes)
    for a in range(base.q):
        for b in range(base.q):
            assert int(up[base.smul(a, b)]) == big.smul(int(up[a]), int(up[b]))
            assert int(up[base.sadd(a, b)]) == big.sadd(int(up[a]), int(up[b]))


def test_coerce_down_rejects_outside_subfield():
    base = make_prime_field(3)
    big = extend_field(base, 3)
    with pytest.raises(FieldError):
        ff.coerce_down(base, big, np.array([base.q], dtype=np.int64))
    # GF(2^3) inside its degree-2 extension: 2^6 - 2^3 codes lie outside
    base = make_ext_field(2, 3)
    big = extend_field(base, base.q)
    up = set(ff.embed_up(base, big, np.arange(base.q)).tolist())
    outside = next(c for c in range(big.q) if c not in up)
    with pytest.raises(FieldError):
        ff.coerce_down(base, big, np.array([[0, outside]], dtype=np.int64))


def test_coerce_down_noncontiguous_input():
    # transposed (non C order) arrays must coerce correctly too
    base = make_prime_field(3)
    big = extend_field(base, 3)
    a = np.arange(6, dtype=np.int64).reshape(2, 3) % 3
    up = ff.embed_up(base, big, a)
    back = ff.coerce_down(base, big, np.asfortranarray(up))
    assert np.array_equal(back, a)


# Towers: extend_field over an extension base builds a field over that base,
# checked against polynomials over the base in the base's own scalar ops
TOWERS = [((2, 2), 3), ((3, 2), 2)]


def tower(base_pnu, d):
    base = make_ext_field(*base_pnu)
    return extend_field(base, base.q ** (d - 1))


def tower_digits(F, a):
    return [a // F.base.q ** i % F.base.q for i in range(F.nu)]


def tower_code(F, digits):
    return sum(c * F.base.q ** i for i, c in enumerate(digits))


def tower_add(F, a, b, op="sadd"):
    return tower_code(F, [getattr(F.base, op)(x, y) for x, y in
                          zip(tower_digits(F, a), tower_digits(F, b))])


def tower_mul(F, a, b):
    """Schoolbook product of the digit polynomials, reduced by the monic
    modulus."""
    B, nu = F.base, F.nu
    prod = [0] * (2 * nu - 1)
    for i, x in enumerate(tower_digits(F, a)):
        for j, y in enumerate(tower_digits(F, b)):
            prod[i + j] = B.sadd(prod[i + j], B.smul(x, y))
    for d in range(2 * nu - 2, nu - 1, -1):
        for i in range(nu):
            prod[d - nu + i] = B.ssub(prod[d - nu + i],
                                      B.smul(prod[d], F.modulus[i]))
    return tower_code(F, prod[:nu])


@pytest.mark.parametrize("base_pnu,d", TOWERS)
def test_tower_arithmetic_matches_base_polynomials(base_pnu, d):
    F = tower(base_pnu, d)
    B = F.base
    assert B == make_ext_field(*base_pnu) and F.nu == d and F.q == B.q ** d
    # no root in the base: irreducible, as the degree is 2 or 3
    for x in range(B.q):
        acc = 0
        for c in reversed(F.modulus):
            acc = B.sadd(B.smul(acc, x), c)
        assert acc != 0
    codes = np.arange(F.q, dtype=np.int64)
    a, b = np.repeat(codes, F.q), np.tile(codes, F.q)
    pairs = list(zip(a.tolist(), b.tolist()))
    want = {"add": [tower_add(F, x, y) for x, y in pairs],
            "sub": [tower_add(F, x, y, "ssub") for x, y in pairs],
            "mul": [tower_mul(F, x, y) for x, y in pairs]}
    for op, w in want.items():
        assert getattr(F, op)(a, b).tolist() == w, op
        assert [getattr(F, "s" + op)(x, y) for x, y in pairs] == w, op
    assert all(tower_mul(F, x, F.sinv(x)) == 1 for x in range(1, F.q))
    rng = np.random.default_rng(F.q)
    A, M = F.rand(rng, (4, 6)), F.rand(rng, (6, 3))
    want = [[0] * 3 for _ in range(4)]
    for i in range(4):
        for j in range(3):
            for t in range(6):
                prod = tower_mul(F, int(A[i, t]), int(M[t, j]))
                want[i][j] = tower_add(F, want[i][j], prod)
    assert F.matmul(A, M).tolist() == want


@pytest.mark.parametrize("ctx", [make_ext_field(7, 3), make_ext_field(2, 9),
                                 tower((2, 2), 3)], ids=repr)
def test_planes_pack_roundtrip(ctx):
    rng = np.random.default_rng(ctx.q)
    r = ctx.base.q
    for shape in ((0, 3), (3, 0), (1, 1), (5, 4)):
        A = ctx.rand(rng, shape)
        for view in (A, A.T, A[::2]):
            m = view.shape[0]
            D = ctx.planes(view)
            assert D.shape == (ctx.nu * m, view.shape[1])
            for i in range(ctx.nu):
                assert np.array_equal(D[i * m:(i + 1) * m], view // r ** i % r)
            assert np.array_equal(ctx.pack(D), view)
    # a base matrix is its own constant plane
    M = ctx.base.rand(rng, (3, 4))
    assert np.array_equal(ctx.planes(M), np.vstack(
        [M] + [np.zeros_like(M)] * (ctx.nu - 1)))


def test_tower_and_flat_field_are_distinct():
    gf2, gf4 = make_prime_field(2), make_ext_field(2, 2)
    t = extend_field(gf4, 4)  # degree 2 over GF(4): p = nu = 2, as GF(2^2)
    flat2, flat4 = make_ext_field(2, 2), make_ext_field(2, 4)
    assert (t.p, t.nu, t.q) == (2, 2, 16)
    assert t != flat2 and t != flat4 and len({t, flat2, flat4}) == 3
    assert t is extend_field(gf4, 15) and t == ff.ExtField(gf4, 2)
    assert ff._FIELD_CACHE[(gf4, 2)] is t
    assert ff._FIELD_CACHE[(gf2, 4)] is flat4 is extend_field(gf2, 15)
    # towers of the same p, nu and q but different bases
    t3, f3 = extend_field(t, 16), extend_field(flat4, 16)
    assert (t3.p, t3.nu, t3.q) == (f3.p, f3.nu, f3.q) == (2, 2, 256)
    assert t3 != f3 and t3 is not f3


@pytest.mark.parametrize("ctx", [make_ext_field(7, 3), tower((2, 2), 3)],
                         ids=repr)
def test_ext_matmul_counts_m_ell_n_ops(ctx):
    ff.reset_op_count()
    rng = np.random.default_rng(5)
    for m, ell, n in ((3, 5, 2), (0, 4, 3), (4, 0, 2), (20, 30, 40)):
        A, B = ctx.rand(rng, (m, ell)), ctx.rand(rng, (ell, n))
        before = ff.op_count()
        ctx.matmul(A, B)
        assert ff.op_count() - before == m * ell * n


def test_op_counter_moves():
    ff.reset_op_count()
    before = ff.op_count()
    ctx = make_prime_field(65537)
    rng = np.random.default_rng(0)
    A = ctx.rand(rng, (10, 10))
    ctx.matmul(A, A)
    assert ff.op_count() > before
    # an elementwise product counts the entries of its broadcast result
    for ctx in (ctx, make_ext_field(7, 2), make_prime_field(2 ** 61 - 1)):
        before = ff.op_count()
        ctx.mul(np.ones((10, 1), dtype=np.int64), np.ones(7, dtype=np.int64))
        assert ff.op_count() - before == 70


def test_op_counting_off_until_reset(monkeypatch):
    # a fresh process does not count
    src = os.path.dirname(os.path.dirname(os.path.abspath(ff.__file__)))
    code = ("import numpy as np; from eclu import ff; "
            "F = ff.make_prime_field(7); a = np.ones((4, 4), dtype=np.int64); "
            "F.add(F.matmul(a, a), a); print(ff.op_count(), ff._COUNTING)")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env=dict(os.environ,
                                                       PYTHONPATH=src))
    assert out.stdout.split() == ["0", "False"]

    # while counting is off, no call site evaluates a size
    def no_sizes(a):
        raise AssertionError("_sz evaluated while counting is off")

    monkeypatch.setattr(ff, "_COUNTING", False)
    monkeypatch.setattr(ff, "_sz", no_sizes)
    before = ff.op_count()
    rng = np.random.default_rng(1)
    for ctx in (make_prime_field(7), make_ext_field(7, 2)):
        a = ctx.rand_nonzero(rng, (3, 3))
        ctx.neg(ctx.sub(ctx.add(ctx.mul(a, a), a), ctx.matmul(a, a)))
        ctx.sinv(ctx.smul(ctx.sadd(2, 3), ctx.smul(3, 3)))
    assert ff.op_count() == before


# a prime on each side of the thresholds of PrimeField.matmul on p: 2^24
# (float64 blocks below, 11-bit limbs above) and 2^31 (Python ints above)
KERNEL_PRIMES = [2, 7, 2 ** 16 + 1, 2 ** 24 - 3, 2 ** 24 + 43, 2 ** 29 - 3,
                 2 ** 31 - 1, 2 ** 31 + 11, 2 ** 61 - 1]


def int_matmul(A, B, p):
    """A.B mod p in Python ints, one entry at a time."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            out[i, j] = sum(int(a) * int(b) for a, b in zip(A[i], B[:, j])) % p
    return out


def operand(rng, p, shape, fill, layout):
    """Residues of the given shape, laid out as the Crout recursion passes
    them: C order, the transpose of a C-order array, or a strided view."""
    m, n = shape
    store = {"plain": (m, n), "transposed": (n, m),
             "strided": (2 * m + 1, 3 * n + 2)}[layout]
    a = (np.full(store, p - 1, dtype=np.int64) if fill == "max"
         else rng.integers(0, p, store, dtype=np.int64))
    if layout == "transposed":
        return a.T
    if layout == "strided":
        return a[1::2, 2::3]
    return a


def check_matmul(p, A, B):
    C = make_prime_field(p).matmul(A, B)
    assert C.dtype == np.int64 and C.shape == (A.shape[0], B.shape[1])
    assert C.size == 0 or (C.min() >= 0 and C.max() < p)
    assert np.array_equal(C, int_matmul(A, B, p))


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@given(data=st.data())
def test_matmul_matches_int_oracle(p, data):
    # sizes on each side of the kernel's shape thresholds, and in between
    side = st.one_of(st.sampled_from([0, 1, 8, 9, 24]), st.integers(0, 24))
    m, n = data.draw(side), data.draw(side)
    ell = data.draw(st.one_of(st.sampled_from([0, 1, 2, 32, 33, 100]),
                              st.integers(0, 100)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    fill = data.draw(st.sampled_from(["random", "max"]))
    layouts = st.sampled_from(["plain", "transposed", "strided"])
    A = operand(rng, p, (m, ell), fill, data.draw(layouts))
    B = operand(rng, p, (ell, n), fill, data.draw(layouts))
    check_matmul(p, A, B)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("m,ell,n", [
    (3, 0, 4), (5, 1, 7), (2, 2, 2), (1, 100, 24), (24, 100, 1),
    (8, 100, 24), (12, 57, 12), (24, 100, 24),
])
def test_matmul_all_max_residues(p, m, ell, n):
    # (p-1)^2 terms are the largest each exact sum has to hold
    rng = np.random.default_rng(0)
    check_matmul(p, operand(rng, p, (m, ell), "max", "plain"),
                 operand(rng, p, (ell, n), "max", "strided"))


@pytest.mark.parametrize("p", [2 ** 24 - 3, 2 ** 29 - 3, 2 ** 31 - 1])
def test_matmul_inner_dimension_beyond_one_block(p):
    # 70000 inner terms span 2188 float64 blocks of 32 at 2^24 - 3, and 35
    # float64 blocks of 2^11 for the 11-bit limbs above 2^24
    rng = np.random.default_rng(1)
    for fill in ("max", "random"):
        check_matmul(p, operand(rng, p, (1, 70000), fill, "plain"),
                     operand(rng, p, (70000, 2), fill, "transposed"))


@pytest.mark.parametrize("p", [2 ** 24 + 43, 2 ** 29 - 3, 2 ** 31 - 1])
@pytest.mark.parametrize("ell", [2047, 2048, 2049])
def test_matmul_limb_block_at_its_bound(p, ell):
    # a float64 block of the 11-bit limbs holds 2^11 terms below 2^42;
    # all-(p-1) operands make every term and every block sum its largest,
    # whichever side is split
    rng = np.random.default_rng(2)
    check_matmul(p, operand(rng, p, (1, ell), "max", "plain"),
                 operand(rng, p, (ell, 3), "max", "transposed"))
    check_matmul(p, operand(rng, p, (3, ell), "max", "strided"),
                 operand(rng, p, (ell, 1), "max", "plain"))


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_sinv_matches_fermat(p):
    f = make_prime_field(p)
    rng = np.random.default_rng(p % 1009)
    for a in [1, p - 1] + rng.integers(1, p, 20).tolist():
        assert f.sinv(a) == pow(a, p - 2, p)
        assert f.sinv(a + p) == f.sinv(a)
    for zero in (0, p):
        with pytest.raises(ZeroDivisionError):
            f.sinv(zero)


def test_canonical_reduces_only_out_of_range_codes():
    f = make_prime_field(65537)
    a = np.array([[0, 65536], [1, 2]], dtype=np.int64)
    assert f.canonical(a) is a
    b = np.array([[65537 + 3, -1], [5, 2 * 65537]], dtype=np.int64)
    red = f.canonical(b)
    assert red.tolist() == [[3, 65536], [5, 0]]
    assert b[0, 0] == 65540  # a copy unless in place is asked for
    f.canonical(b.T, in_place=True)
    assert b.tolist() == [[3, 65536], [5, 0]]
    g = make_ext_field(7, 3)
    with pytest.raises(FieldError):
        g.canonical(np.array([0, -1], dtype=np.int64))
    with pytest.raises(FieldError):
        g.canonical(np.array([g.q], dtype=np.int64))


# ExtField against a coefficient-list oracle: each code is unpacked with
# coeffs, combined digit by digit (or by ff._polmul_mod) and packed with code
EXT_FIELDS = [(2, 2), (2, 7), (2, 8), (3, 4), (7, 3), (31, 3)]


def oracle_add(ctx, a, b, sign=1):
    return ctx.code([(x + sign * y) % ctx.p
                     for x, y in zip(ctx.coeffs(a), ctx.coeffs(b))])


def oracle_mul(ctx, a, b):
    return ctx.code(ff._polmul_mod(ctx.base, ctx.coeffs(a), ctx.coeffs(b),
                                   ctx.modulus))


def oracle_matmul(ctx, A, B):
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for a, b in zip(A[i], B[:, j]):
                acc = oracle_add(ctx, acc, oracle_mul(ctx, a, b))
            out[i, j] = acc
    return out


def check_ext_elementwise(ctx, a, b):
    """Vector and scalar add, sub, neg and mul of code arrays a and b."""
    pairs = list(zip(a.tolist(), b.tolist()))
    want = {"add": [oracle_add(ctx, x, y) for x, y in pairs],
            "sub": [oracle_add(ctx, x, y, -1) for x, y in pairs],
            "mul": [oracle_mul(ctx, x, y) for x, y in pairs]}
    for op, w in want.items():
        assert getattr(ctx, op)(a, b).tolist() == w, op
        assert [getattr(ctx, "s" + op)(x, y) for x, y in pairs] == w, op
    neg = [oracle_add(ctx, 0, x, -1) for x in a.tolist()]
    assert ctx.neg(a).tolist() == neg
    assert [ctx.ssub(0, x) for x in a.tolist()] == neg
    # a + (-a) = 0, and a + a = 0 in characteristic 2
    assert not ctx.add(a, ctx.neg(a)).any()
    assert all(ctx.sadd(x, ctx.ssub(0, x)) == 0 for x in a.tolist())
    if ctx.p == 2:
        assert not ctx.add(a, a).any()
    # a code array plus one scalar code, as the locator sweep adds them
    c = int(b[0])
    assert ctx.add(a, np.int64(c)).tolist() == [oracle_add(ctx, x, c)
                                                for x in a.tolist()]


def ext_codes(ctx):
    # zero and q - 1 often, so that the zero-operand paths are hit
    return st.one_of(st.sampled_from([0, 1, ctx.q - 1]),
                     st.integers(0, ctx.q - 1))


@pytest.mark.parametrize("p,nu", EXT_FIELDS)
@given(data=st.data())
def test_ext_elementwise_matches_oracle(p, nu, data):
    ctx = make_ext_field(p, nu)
    n = data.draw(st.integers(1, 12))
    a = np.array(data.draw(st.lists(ext_codes(ctx), min_size=n, max_size=n)),
                 dtype=np.int64)
    b = np.array(data.draw(st.lists(ext_codes(ctx), min_size=n, max_size=n)),
                 dtype=np.int64)
    if data.draw(st.booleans()):
        b[::2] = ctx.neg(a[::2])  # sums that vanish
    check_ext_elementwise(ctx, a, b)


@pytest.mark.parametrize("p,nu", [(2, 2), (2, 7), (3, 4)])
def test_ext_elementwise_all_pairs_of_small_field(p, nu):
    ctx = make_ext_field(p, nu)
    codes = np.arange(ctx.q, dtype=np.int64)
    check_ext_elementwise(ctx, np.repeat(codes, ctx.q), np.tile(codes, ctx.q))


def check_ext_matmul(ctx, A, B):
    C = ctx.matmul(A, B)
    assert C.dtype == np.int64 and C.shape == (A.shape[0], B.shape[1])
    assert np.array_equal(C, oracle_matmul(ctx, A, B))


@pytest.mark.parametrize("p,nu", EXT_FIELDS)
@given(data=st.data())
def test_ext_matmul_matches_oracle(p, nu, data):
    ctx = make_ext_field(p, nu)
    side = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 7))
    m, n = data.draw(side), data.draw(side)
    ell = data.draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 9)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    fill = data.draw(st.sampled_from(["random", "max"]))
    layouts = st.sampled_from(["plain", "transposed", "strided"])
    A = operand(rng, ctx.q, (m, ell), fill, data.draw(layouts))
    B = operand(rng, ctx.q, (ell, n), fill, data.draw(layouts))
    check_ext_matmul(ctx, A, B)


@pytest.mark.parametrize("p,nu", EXT_FIELDS)
@pytest.mark.parametrize("m,ell,n,fill,la,lb", [
    (3, 0, 4, "random", "plain", "plain"),
    (4, 1, 3, "max", "transposed", "plain"),
    (5, 1, 1, "random", "strided", "strided"),
    (6, 9, 5, "max", "plain", "strided"),
    (7, 12, 6, "max", "transposed", "transposed"),
    (12, 40, 10, "random", "strided", "transposed"),
])
def test_ext_matmul_fixed_cases(p, nu, m, ell, n, fill, la, lb):
    # inner dimensions 0 and 1, all-(q-1) operands, the views the Crout
    # recursion passes, and a product large enough for the float64 kernel
    ctx = make_ext_field(p, nu)
    rng = np.random.default_rng(m * ell + n)
    check_ext_matmul(ctx, operand(rng, ctx.q, (m, ell), fill, la),
                     operand(rng, ctx.q, (ell, n), fill, lb))


def test_ext_gf2_20_matches_oracle():
    # the largest field ExtField builds, kept out of the field cache
    ctx = ff.ExtField(make_prime_field(2), 20)
    assert len(ctx._exp) == len(ctx._zech) == ctx.q - 1 == len(ctx._log) - 1
    rng = np.random.default_rng(20)
    a = rng.integers(0, ctx.q, 200, dtype=np.int64)
    b = rng.integers(0, ctx.q, 200, dtype=np.int64)
    a[:3] = [0, 1, ctx.q - 1]
    b[:6] = [0, 0, ctx.q - 1, 5, 1, ctx.q - 1]
    b[6:12] = a[6:12]
    check_ext_elementwise(ctx, a, b)
    for fill in ("random", "max"):
        check_ext_matmul(ctx, operand(rng, ctx.q, (3, 5), fill, "strided"),
                         operand(rng, ctx.q, (5, 2), fill, "transposed"))


def test_residue_products_only_in_the_field_kernel():
    # PrimeField.matmul (with ExtField's table folds) is the only place
    # where residues are multiplied: no `@`, numpy product function or
    # `.dot(` call anywhere else in the package
    products = {"matmul", "dot", "einsum", "tensordot"}
    found = []
    for path in sorted(pathlib.Path(ff.__file__).parent.glob("*.py")):
        if path.name == "ff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.MatMult):
                found.append((path.name, node.__class__.__name__))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)):
                name, owner = node.func.attr, node.func.value
                if name == "dot" or (
                        name in products and isinstance(owner, ast.Name)
                        and owner.id in ("np", "numpy")):
                    found.append((path.name, name, node.lineno))
    assert found == []


@pytest.mark.parametrize("src,flagged", [
    ("x = a @ b", True), ("x = np.matmul(a, b)", True),
    ("x = np.dot(a, b)", True), ("x = numpy.einsum('ij,jk', a, b)", True),
    ("x = np.tensordot(a, b, 1)", True), ("x = a.dot(b)", True),
    ("x = ctx.dot(a, b)", True), ("x = ctx.matmul(a, b)", False)])
def test_kernel_guard_sees_every_product_form(src, flagged, tmp_path,
                                              monkeypatch):
    # the guard above, run over a package holding one line besides ff.py
    (tmp_path / "ff.py").write_text("x = a @ b\n")
    (tmp_path / "other.py").write_text(src + "\n")
    monkeypatch.setattr(ff, "__file__", str(tmp_path / "ff.py"))
    if flagged:
        with pytest.raises(AssertionError):
            test_residue_products_only_in_the_field_kernel()
    else:
        test_residue_products_only_in_the_field_kernel()
