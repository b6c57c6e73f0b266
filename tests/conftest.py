import numpy as np
import pytest

from equisym import nn


@pytest.fixture
def degenerate_gamma(monkeypatch):
    """Every gamma-backbone output counts as near-singular, so each
    sym_recursive coset draw raises; the input condition cap is left alone."""
    real_cond_within = nn.cond_within

    def reject_at_degeneracy_cap(M, cap):
        if cap == nn.DEGENERACY_CAP:
            return np.zeros(np.shape(M)[:-2], dtype=bool)
        return real_cond_within(M, cap)

    monkeypatch.setattr(nn, "cond_within", reject_at_degeneracy_cap)
