"""Suite-wide Hypothesis settings."""

from hypothesis import settings

# Every falsifying example also prints a @reproduce_failure line, so a draw
# that fails only on a fresh example database, as on a CI runner, replays
# locally. Draws, budgets and deadlines stay Hypothesis's defaults or each
# test's own @settings.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
