import pytest

import monocurves.toric as toric_module


@pytest.fixture
def saturations(monkeypatch):
    """The list of the variables parametrization_kernel saturates by, in
    turn, recorded by a spy on its steps; clear it between kernels."""
    steps = []
    saturation = toric_module._saturation

    def recording(exponents, i, *args):
        steps.append(i)
        return saturation(exponents, i, *args)

    monkeypatch.setattr(toric_module, "_saturation", recording)
    return steps
