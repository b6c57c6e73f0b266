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


def per_coordinate_fd(f, params, h=1e-5):
    """Central finite differences one coordinate at a time: each entry is
    moved in place by +h and by -h around one call each of f, a scalar
    function of the parameter list.  The reference that
    checks.finite_difference_grads must match bit for bit."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = f(params)
            flat[j] = orig - h
            down = f(params)
            flat[j] = orig
            gflat[j] = (up - down) / (2 * h)
        grads.append(g)
    return grads


@pytest.fixture
def fd_reference():
    return per_coordinate_fd
