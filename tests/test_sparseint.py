"""Sparse recovery from Vandermonde evaluations."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eclu.blackbox import BlackboxRHS
from eclu.ff import (PowTable, element_of_order_at_least, extend_field,
                     make_ext_field, make_prime_field)
from eclu.mat import Mat
from eclu.sparseint import (FAILED, apply_vandermonde, batch_interpolate,
                            berlekamp_massey, interpolate_column,
                            vandermonde_cols)

F7 = make_prime_field(7)
F13 = make_prime_field(13)
FBIG = make_prime_field(65537)


def power(ctx, a, e):
    """a^e: Python pow mod p, or square and multiply by ExtField.smul."""
    if ctx.nu == 1:
        return pow(int(a), e, ctx.p)
    out = 1
    while e:
        if e & 1:
            out = ctx.smul(out, a)
        a, e = ctx.smul(a, a), e >> 1
    return out


def synth_evals(ctx, tab, nrows, entries):
    """Reference evaluations sum_j e_j theta^(i j), by plain accumulation."""
    out = [0] * nrows
    for j, v in entries:
        for i in range(nrows):
            out[i] = ctx.sadd(out[i], ctx.smul(v, power(ctx, tab.theta,
                                                         i * j)))
    return np.array(out, dtype=np.int64)


def test_zero_column():
    tab = element_of_order_at_least(F7, 3)
    col = interpolate_column(F7, np.zeros(2, dtype=np.int64), 1, tab)
    assert col is not None and col.indices == [] and col.values == []


def test_hand_example_gf7():
    # theta=3, m=3, single term e_2=4: evals (4, 4*3^2) = (4, 1)
    tab = PowTable(F7, 3, 3, np.array([1, 3, 2], dtype=np.int64))
    col = interpolate_column(F7, np.array([4, 1], dtype=np.int64), 1, tab)
    assert col is not None
    assert list(zip(col.indices, col.values)) == [(2, 4)]


def test_exhaustive_up_to_two_nonzeros_gf13():
    m, s = 6, 2
    tab = element_of_order_at_least(F13, m)
    cases = 0
    # all vectors with <= 2 nonzeros over GF(13), m = 6
    for support in itertools.chain([()],
                                   itertools.combinations(range(m), 1),
                                   itertools.combinations(range(m), 2)):
        for values in itertools.product(range(1, 13), repeat=len(support)):
            entries = list(zip(support, values))
            evals = synth_evals(F13, tab, 2 * s, entries)
            col = interpolate_column(F13, evals, s, tab)
            assert col is not None
            assert list(zip(col.indices, col.values)) == entries
            cases += 1
    assert cases == 1 + 6 * 12 + 15 * 144


def test_random_recovery_trials():
    rng = np.random.default_rng(0)
    for (m, s) in ((8, 1), (16, 3), (64, 8)):
        tab = element_of_order_at_least(FBIG, m)
        for _ in range(200):
            sp = int(rng.integers(0, s + 1))
            support = sorted(rng.choice(m, size=sp, replace=False).tolist())
            entries = [(int(j), int(FBIG.rand_nonzero(rng)))
                       for j in support]
            evals = synth_evals(FBIG, tab, 2 * s, entries)
            col = interpolate_column(FBIG, evals, s, tab)
            assert col is not None
            assert list(zip(col.indices, col.values)) == entries


def test_too_dense_column_fails_or_is_caught():
    m, s = 12, 2
    tab = element_of_order_at_least(F13, m)
    rng = np.random.default_rng(1)
    for _ in range(50):
        support = sorted(rng.choice(m, size=s + 1, replace=False).tolist())
        entries = [(int(j), int(F13.rand_nonzero(rng))) for j in support]
        evals = synth_evals(F13, tab, 2 * s, entries)
        col = interpolate_column(F13, evals, s, tab)
        if col is not None:
            # a survivor must at least reproduce its 2s evaluations; it can
            # never silently equal the dense truth
            assert list(zip(col.indices, col.values)) != entries


def test_batch_empty_and_mixed():
    m, s = 8, 2
    tab = element_of_order_at_least(F13, m)
    assert batch_interpolate(F13, np.zeros((2 * s, 0), dtype=np.int64),
                             s, tab) == []
    good = [(1, 3), (5, 7)]
    dense = [(0, 1), (2, 4), (4, 2)]  # s+1 terms
    G = np.column_stack([synth_evals(F13, tab, 2 * s, good),
                         synth_evals(F13, tab, 2 * s, dense)])
    out = batch_interpolate(F13, G, s, tab)
    assert out[0] is not None
    assert list(zip(out[0].indices, out[0].values)) == good
    if out[1] is not None:
        assert list(zip(out[1].indices, out[1].values)) != dense


def test_batch_all_sparse_random():
    rng = np.random.default_rng(2)
    m, s, c = 20, 3, 15
    tab = element_of_order_at_least(FBIG, m)
    truth = []
    cols = []
    for _ in range(c):
        sp = int(rng.integers(0, s + 1))
        support = sorted(rng.choice(m, size=sp, replace=False).tolist())
        entries = [(int(j), int(FBIG.rand_nonzero(rng))) for j in support]
        truth.append(entries)
        cols.append(synth_evals(FBIG, tab, 2 * s, entries))
    out = batch_interpolate(FBIG, np.column_stack(cols), s, tab)
    for col, entries in zip(out, truth):
        assert col is not None
        assert list(zip(col.indices, col.values)) == entries


def test_berlekamp_massey_known_recurrence():
    # sequence a_i = 2*3^i + 5^i over GF(13) satisfies the recurrence with
    # characteristic roots {3, 5}
    seq = [F13.sadd(F13.smul(2, pow(3, i, 13)), pow(5, i, 13))
           for i in range(6)]
    conn, L = berlekamp_massey(F13, np.array(seq, dtype=np.int64))
    assert L == 2
    # connection polynomial annihilates the sequence
    for i in range(L, 6):
        acc = seq[i]
        for t in range(1, L + 1):
            acc = F13.sadd(acc, F13.smul(int(conn[t]), seq[i - t]))
        assert acc == 0


def generates(ctx, conn, L, seq):
    """Whether the length-L register with connection polynomial conn
    produces seq: sum_j conn[j] seq[i - j] = 0 for L <= i < len(seq)."""
    for i in range(L, len(seq)):
        acc = 0
        for j in range(L + 1):
            acc = ctx.sadd(acc, ctx.smul(conn[j], seq[i - j]))
        if acc:
            return False
    return True


@given(ctx=st.sampled_from([make_prime_field(2), make_prime_field(3),
                            make_ext_field(2, 2)]), data=st.data())
def test_berlekamp_massey_is_minimal(ctx, data):
    # the shortest register, by exhaustive search over connection
    # polynomials of each length in turn
    seq = data.draw(st.lists(st.integers(0, ctx.q - 1), max_size=6))
    conn, L = berlekamp_massey(ctx, seq)
    assert len(conn) == L + 1 and conn[0] == 1
    assert generates(ctx, conn, L, seq)
    least = next(n for n in range(len(seq) + 1)
                 if any(generates(ctx, (1,) + tail, n, seq)
                        for tail in itertools.product(range(ctx.q),
                                                      repeat=n)))
    assert L == least


def test_apply_vandermonde_matches_direct():
    rng = np.random.default_rng(3)
    m, rows = 10, 6
    tab = element_of_order_at_least(F13, m)
    M = F13.rand(rng, (m, 4))
    out = apply_vandermonde(F13, tab, rows, M)
    V = np.array([[power(F13, tab.theta, i * j) for j in range(m)]
                  for i in range(rows)], dtype=np.int64)
    assert np.array_equal(out, F13.matmul(V, M))


@pytest.mark.parametrize("base,m", [(make_prime_field(2), 40), (F7, 60),
                                    (make_ext_field(2, 2), 30)], ids=repr)
def test_apply_vandermonde_with_theta_in_an_extension_gives_planes(base, m):
    # M over base, theta from the extension built over it: the result is
    # over base, the digit planes of V.M
    big = extend_field(base, m)
    tab = element_of_order_at_least(big, m)
    rng = np.random.default_rng(m)
    M = base.rand(rng, (m, 5))
    M[::3] = 0
    V = vandermonde_cols(big, tab, 6, np.arange(m))
    out = apply_vandermonde(base, tab, 6, M)
    assert np.array_equal(out, big.planes(big.matmul(V, M)))
    assert_canonical(base, out)
    assert np.array_equal(big.pack(out), big.matmul(V, M))


# fields of the Vandermonde property tests: primes from GF(7) to the int64
# edge (2^31 - 1 leaves room for 2 products per sum), one that takes the
# object-dtype path, and an extension field
KERNEL_FIELDS = [make_prime_field(7), make_prime_field(65537),
                 make_prime_field(2 ** 29 - 3), make_prime_field(2 ** 31 - 1),
                 make_prime_field(2 ** 61 - 1), make_ext_field(7, 3)]


def explicit_vandermonde(ctx, tab, nrows, cols):
    """V[i][t] = theta^(i * cols[t]) as Python ints, one power per entry."""
    return [[power(ctx, tab.theta, i * j) for j in cols]
            for i in range(nrows)]


def oracle_product(ctx, V, M):
    """V.M entry by entry: Python ints mod p, or scalar ExtField ops."""
    nrows, ncols = len(V), M.shape[1]
    out = np.zeros((nrows, ncols), dtype=np.int64)
    for i in range(nrows):
        for c in range(ncols):
            if ctx.nu == 1:
                acc = sum(V[i][j] * int(M[j, c])
                          for j in range(M.shape[0])) % ctx.p
            else:
                acc = 0
                for j in range(M.shape[0]):
                    acc = ctx.sadd(acc, ctx.smul(V[i][j], int(M[j, c])))
            out[i, c] = acc
    return out


def assert_canonical(ctx, out):
    assert out.dtype == np.int64
    assert np.all((out >= 0) & (out < ctx.q))


@st.composite
def vandermonde_case(draw):
    """(ctx, tab, nrows, m): m <= tab.m, and nrows 0, 1 or 2s."""
    ctx = draw(st.sampled_from(KERNEL_FIELDS))
    tab_m = draw(st.integers(1, min(ctx.q - 1, 24)))
    m = draw(st.integers(0, tab_m))
    s = draw(st.integers(1, 6))
    nrows = draw(st.sampled_from([0, 1, 2 * s]))
    return ctx, element_of_order_at_least(ctx, tab_m), nrows, m


@given(case=vandermonde_case(), data=st.data())
def test_apply_vandermonde_property(case, data):
    ctx, tab, nrows, m = case
    ncols = data.draw(st.integers(0, 4))
    M = data.draw(arrays(np.int64, (m, ncols),
                         elements=st.integers(0, ctx.q - 1)))
    M[data.draw(arrays(np.bool_, m))] = 0  # all-zero rows
    if data.draw(st.booleans()):
        M[...] = 0
    out = apply_vandermonde(ctx, tab, nrows, M)
    V = explicit_vandermonde(ctx, tab, nrows, range(m))
    assert out.shape == (nrows, ncols)
    assert np.array_equal(out, oracle_product(ctx, V, M))
    assert_canonical(ctx, out)


@st.composite
def blackbox_case(draw):
    """(ctx, tab, nrows, H): a blackbox H = C, +-A.B or C +- A.B over
    KERNEL_FIELDS, or over GF(2) with theta from its extension."""
    ctx = draw(st.sampled_from(KERNEL_FIELDS + [make_prime_field(2)]))
    if ctx.q == 2:
        tab_m = draw(st.integers(2, 24))
        tab = element_of_order_at_least(extend_field(ctx, tab_m), tab_m)
    else:
        tab_m = draw(st.integers(1, min(ctx.q - 1, 24)))
        tab = element_of_order_at_least(ctx, tab_m)
    m = draw(st.integers(0, tab_m))
    n = draw(st.integers(0, 4))
    ell = draw(st.integers(0, 3))
    form = draw(st.sampled_from(["C", "AB", "C+AB"]))

    def mat(rows, cols):
        return Mat(ctx, draw(arrays(np.int64, (rows, cols),
                                    elements=st.integers(0, ctx.q - 1))))

    C = None if form == "AB" else mat(m, n)
    A, B = (None, None) if form == "C" else (mat(m, ell), mat(ell, n))
    H = BlackboxRHS(C=C, A=A, B=B, sign=draw(st.sampled_from([-1, 1])))
    return ctx, tab, draw(st.sampled_from([0, 1, 2, 6])), H


@given(case=blackbox_case())
def test_apply_vandermonde_projects_a_blackbox_as_its_dense_form(case):
    ctx, tab, nrows, H = case
    out = apply_vandermonde(ctx, tab, nrows, H)
    assert np.array_equal(out, apply_vandermonde(ctx, tab, nrows, H.dense().a))
    assert_canonical(ctx, out)


@pytest.mark.parametrize("base,m", [(make_prime_field(2), 40), (F7, 60),
                                    (make_ext_field(2, 2), 30)], ids=repr)
def test_batch_interpolate_reads_planes_and_recovers_over_the_base(base, m):
    # theta from the extension built over base: G as apply_vandermonde
    # returns it, digit planes over base, gives back a sparse S over base
    s, c = 3, 12
    tab = element_of_order_at_least(extend_field(base, m), m)
    rng = np.random.default_rng(m)
    S = np.zeros((m, c), dtype=np.int64)
    for j in range(c):
        rows = rng.choice(m, size=int(rng.integers(0, s + 1)), replace=False)
        S[rows, j] = base.rand_nonzero(rng, (len(rows),))
    out = batch_interpolate(base, apply_vandermonde(base, tab, 2 * s, S), s,
                            tab)
    for j, col in enumerate(out):
        assert col is not FAILED
        assert col.indices == np.nonzero(S[:, j])[0].tolist()
        assert col.values == S[col.indices, j].tolist()


def test_batch_interpolate_fails_a_column_with_a_value_outside_the_base():
    # column 1 is 2-sparse over GF(2^6) but holds the code 2 = y, which is
    # outside GF(2): read over GF(2^6) it recovers, read over GF(2) it fails
    base, m, s = make_prime_field(2), 40, 2
    big = extend_field(base, m)
    tab = element_of_order_at_least(big, m)
    S = np.zeros((m, 2), dtype=np.int64)
    S[[3, 17], 0] = 1
    S[[5, 30], 1] = [1, 2]
    G = big.matmul(vandermonde_cols(big, tab, 2 * s, np.arange(m)), S)
    assert [col.indices for col in batch_interpolate(big, G, s, tab)] == [
        [3, 17], [5, 30]]
    out = batch_interpolate(base, big.planes(G), s, tab)
    assert out[0].indices == [3, 17] and out[0].values == [1, 1]
    assert out[1] is FAILED


@given(case=vandermonde_case(), data=st.data())
def test_vandermonde_cols_property(case, data):
    ctx, tab, nrows, _ = case
    cols = data.draw(st.lists(st.integers(0, tab.m - 1), max_size=6))
    out = vandermonde_cols(ctx, tab, nrows, np.array(cols, dtype=np.intp))
    V = explicit_vandermonde(ctx, tab, nrows, cols)
    assert out.shape == (nrows, len(cols))
    assert np.array_equal(out, np.array(V, dtype=np.int64).reshape(out.shape))
    assert_canonical(ctx, out)


def test_apply_vandermonde_rejects_rows_beyond_table():
    tab = element_of_order_at_least(F13, 4)
    with pytest.raises(ValueError):
        apply_vandermonde(F13, tab, 2, np.ones((5, 1), dtype=np.int64))
