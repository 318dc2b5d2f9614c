"""Suite-wide test configuration.

One hypothesis profile for every property and model-based test that
does not pin its own ``@settings``: no per-example deadline (the
models do file I/O and the CI runners have two cores), and an example
count taken from ``REPRO_HYPOTHESIS_EXAMPLES`` so a soak run is an
environment variable away.  CI selects it by name
(``--hypothesis-profile=ci``); it is also loaded here so a local run
is the CI run.
"""

import os

from hypothesis import settings

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "60")),
    stateful_step_count=30,
)
settings.load_profile("ci")
