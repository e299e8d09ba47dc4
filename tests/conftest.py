"""Shared test fixtures."""

from __future__ import annotations

import signal

import pytest


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
