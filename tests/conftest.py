"""Session-wide test settings."""

from hypothesis import settings

# Derandomized, with no example database: every run draws the same
# examples, so a pass or failure repeats exactly.  No deadline, because
# the machines that run the suite differ in speed.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
