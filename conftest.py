"""Repo-root conftest: make ``src/`` importable for plain ``pytest`` runs,
and pick the hypothesis settings profile.

The canonical invocation is ``PYTHONPATH=src python -m pytest -x -q``; this
keeps ``pytest`` working without the env var too.

``HYPOTHESIS_PROFILE=ci`` makes every property test deterministic (the
examples derive from the test, not a random seed) and drops the
per-example deadline, so a pull-request run cannot flake on a newly
found example or a slow shared runner.  Unset, hypothesis keeps its
randomised default, which the nightly run uses to keep exploring.
"""

import os
import sys

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
