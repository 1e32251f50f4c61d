"""Shared test settings, and the spy on leaf inversions.

Property tests run a fixed, bounded set of examples: derandomize=True draws
them from a seed derived from each test, and no example database is read or
written, so every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import settings

from eclu import mat

settings.register_profile("eclu", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("eclu")


@pytest.fixture
def leaf_inversions(monkeypatch):
    """watch(buf): a list that fills, from then on, with (kind, unit,
    offset, size, strides) for each diagonal leaf of the square buffer buf
    that mat._inverse inverts, one entry per leaf of each stack it takes.

    A spy on Tri._build reads each leaf's offset from the store entry it
    adds, counted from buf's corner, and checks that as many leaves went
    through mat._inverse; the strides tell buf from its transpose."""
    watched, stacked = [], []
    build, inverse = mat.Tri._build, mat._inverse

    def counting_inverse(ctx, a, kind, unit):
        stacked.append(a.size // a.shape[-1] ** 2)
        return inverse(ctx, a, kind, unit)

    def counting_build(self, blocks):
        before = set(self._inv)
        stacked.clear()
        build(self, blocks)
        new = [key for key in self._inv
               if key not in before and key[2] <= mat._BLOCK_CHECK]
        assert len(new) == sum(stacked)
        for buf, built in watched:
            if np.shares_memory(self.a, buf):
                corner = _diagonal_offset(buf, self.a) - self._off
                built.extend((kind, self.unit, corner + o, b, self.a.strides)
                             for kind, o, b in new)

    monkeypatch.setattr(mat, "_inverse", counting_inverse)
    monkeypatch.setattr(mat.Tri, "_build", counting_build)

    def watch(buf):
        built = []
        watched[:] = [(buf, built)]
        return built
    return watch


def _diagonal_offset(buf, a):
    """i such that a starts at buf[i, i]."""
    row = buf.strides[0] // buf.itemsize
    elems = (a.__array_interface__["data"][0]
             - buf.__array_interface__["data"][0]) // buf.itemsize
    assert elems % (row + 1) == 0
    return elems // (row + 1)
