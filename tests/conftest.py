"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from rankmatch import ranking


class OfferCount:
    """numpy, with its np.add calls counted: run_lanes adds offers only on
    its general branch, never on the by-order one."""

    def __init__(self):
        self.adds = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, *args, **kwargs):
        self.adds += 1
        return np.add(*args, **kwargs)


@pytest.fixture
def branches(monkeypatch):
    """branches(call, lanes) runs call, a run_lanes call over that many
    lanes, and returns its result and the branch it took, "by-order" or
    "offers"; branches.lanes counts the lanes on each."""
    counter = OfferCount()
    monkeypatch.setattr(ranking, "np", counter)

    def run(call, lanes):
        before = counter.adds
        result = call()
        branch = "offers" if counter.adds > before else "by-order"
        run.lanes[branch] += lanes
        return result, branch

    run.lanes = {"by-order": 0, "offers": 0}
    return run
