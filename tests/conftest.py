"""Hypothesis profiles: a derandomized ``ci`` one is loaded by default, so the
fuzz tests draw the same examples on every run; ``--hypothesis-profile
thorough`` draws many more, from a fresh seed.

Hypothesis also mixes the literals of every loaded local module that is not
a test module into its draws, even derandomized.  ``morandim`` imports every
module but ``cli``, which ``test_cli.py`` imports when it is collected, so
``cli`` is imported here: a test then draws the same examples whether it
runs alone, with its own file, or in the full run."""
import pytest

import morandim.cli  # noqa: F401  (see the module docstring)

try:
    from hypothesis import settings
except ImportError:  # the fuzz tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("ci", derandomize=True, max_examples=400, deadline=None,
                              database=None)
    settings.register_profile("thorough", max_examples=2000, deadline=None, database=None)
    settings.load_profile("ci")


@pytest.fixture
def box_count_calls(monkeypatch):
    """The scales ``attractor.box_count`` is called with during the test."""
    import morandim.attractor as attractor
    calls = []
    real = attractor.box_count

    def counted(cloud, epsilon):
        calls.append(epsilon)
        return real(cloud, epsilon)

    monkeypatch.setattr(attractor, "box_count", counted)
    return calls
