"""Shared fixtures.

``m0`` is the reference fixture model used throughout: vocabulary {0, 1, 2}
with EOS = 2, fixed prior [0.5, 0.3, 0.2], content horizon 3. Every expected
value in these tests was derived from that table by hand or by exhaustive
enumeration.
"""

from __future__ import annotations

import pytest

from seqdecode import FixedPriorModel, occupancy_metric

M0_PRIOR = (0.5, 0.3, 0.2)
M0_MAX_LEN = 3
A, B, EOS = 0, 1, 2


def make_m0(value_metric=None, max_len: int = M0_MAX_LEN) -> FixedPriorModel:
    return FixedPriorModel(M0_PRIOR, max_len, value_metric=value_metric)


@pytest.fixture
def m0() -> FixedPriorModel:
    return make_m0()


@pytest.fixture
def occupancy_a3():
    return occupancy_metric(A, 3)
