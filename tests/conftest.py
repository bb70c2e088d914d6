"""Hypothesis profiles: a derandomized ``ci`` one is loaded by default, so the
fuzz tests draw the same examples on every run; ``--hypothesis-profile
thorough`` draws many more, from a fresh seed."""
try:
    from hypothesis import settings
except ImportError:  # the fuzz tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("ci", derandomize=True, max_examples=400, deadline=None,
                              database=None)
    settings.register_profile("thorough", max_examples=2000, deadline=None, database=None)
    settings.load_profile("ci")
