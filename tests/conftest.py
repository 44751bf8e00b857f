"""Fixtures shared by the module tests."""

import tracemalloc

import numpy as np
import pytest

from stkrig import covmodel


@pytest.fixture
def kernel_points(monkeypatch):
    """List that receives the number of points of every e^x K_mu(x)
    evaluation the covariance kernel makes while the test runs."""
    points = []
    inner = covmodel._scaled_bessel_k

    def counted(order, x, **kwargs):
        points.append(np.size(x))
        return inner(order, x, **kwargs)

    monkeypatch.setattr(covmodel, "_scaled_bessel_k", counted)
    return points


@pytest.fixture
def grid_allocations():
    """Function (run, shape) -> the peak of the memory tracemalloc traces
    while run() runs, in float arrays of that shape: how many grid-sized
    arrays a call allocates and holds at once."""

    def allocations(run, shape) -> float:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (np.prod(shape) * np.dtype(float).itemsize)

    return allocations
