import pytest

import monocurves.toric as toric_module


@pytest.fixture
def completions(monkeypatch):
    """The last variable of the order of each engine run the kernel takes,
    in turn, recorded by a spy on toric's ``binomial_run``; clear it
    between kernels."""
    steps = []
    binomial_run = toric_module.binomial_run

    def recording(pairs, order, run):
        steps.append(order.perm[-1])
        return binomial_run(pairs, order, run)

    monkeypatch.setattr(toric_module, "binomial_run", recording)
    return steps
