import pytest

import monocurves.groebner as groebner_module


@pytest.fixture
def completions(monkeypatch):
    """The size of the basis each completion starts from, in turn, recorded
    by a spy on ``groebner._complete_with``, the one pair queue every
    completion runs through; clear it between calls."""
    steps = []
    complete_with = groebner_module._complete_with

    def recording(basis, *args, **kwargs):
        steps.append(len(basis))
        return complete_with(basis, *args, **kwargs)

    monkeypatch.setattr(groebner_module, "_complete_with", recording)
    return steps
