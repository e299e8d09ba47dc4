"""Shared test fixtures."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from blaschkediv import blaschke


@pytest.fixture
def deadline():
    """Raise ``TimeoutError`` in a test that runs past 5 s, so a call that
    would loop forever fails instead of hanging the suite (SIGALRM: Unix,
    main thread)."""
    def expire(signum, frame):
        raise TimeoutError("test ran past its 5 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=["scalar", "numpy"])
def route(request, monkeypatch) -> str:
    """Map a lone product of at most ``_SCALAR_D`` distinct nonzero zeros
    on the scalar route, as the package does, or on numpy."""
    if request.param == "numpy":
        monkeypatch.setattr(blaschke, "_SCALAR_D", 0)
    return request.param


@pytest.fixture
def aberth_calls(monkeypatch) -> list:
    """Record the arguments ``(a, mu, m, start)`` of each ``_aberth`` run,
    one run per forward map that solves."""
    calls, aberth = [], blaschke._aberth

    def counted(*args):
        calls.append(args)
        return aberth(*args)

    monkeypatch.setattr(blaschke, "_aberth", counted)
    return calls


@pytest.fixture
def refused_slots(monkeypatch) -> None:
    """Make an allocation of 2^41 slots by ``np.ones`` raise
    ``MemoryError``, as a lamination table of m = 2 and depth 41 does,
    without requesting the memory."""
    ones = np.ones

    def refused(shape, *args, **kwargs):
        if shape == 2 ** 41:
            raise MemoryError("Unable to allocate 32.0 TiB")
        return ones(shape, *args, **kwargs)

    monkeypatch.setattr(np, "ones", refused)
