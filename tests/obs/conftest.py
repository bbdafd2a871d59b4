"""Fixtures shared by the observability tests."""
from __future__ import annotations

import pytest

from repro.obs import get_tracer


@pytest.fixture
def process_tracer():
    """The process-wide tracer, enabled for one test and always restored."""
    shared = get_tracer()
    shared.enable(reset=True)
    yield shared
    shared.disable()
    shared.reset()
