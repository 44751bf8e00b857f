"""Fixtures shared by the module tests."""

import numpy as np
import pytest

from stkrig import covmodel


@pytest.fixture
def kernel_points(monkeypatch):
    """List that receives the number of points of every e^x K_mu(x)
    evaluation the covariance kernel makes while the test runs."""
    points = []
    inner = covmodel._scaled_bessel_k

    def counted(order, x):
        points.append(np.size(x))
        return inner(order, x)

    monkeypatch.setattr(covmodel, "_scaled_bessel_k", counted)
    return points
