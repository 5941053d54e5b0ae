"""Service readiness probe for ``setup_s``.

A fresh interpreter imports the service's entry points, probes the
engine registry and opens the result cache, then exits.  ``run.py``
times it from spawn to exit.

Usage: ``python3 perfbench/ready.py CACHE_DIR``
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import engine_availability  # noqa: E402
from repro.service.cache import ResultCache  # noqa: E402
from repro.service.eco import eco_reverify  # noqa: E402,F401
from repro.service.runner import CampaignRunner  # noqa: E402,F401

engine_availability()
ResultCache(sys.argv[1]).stats()
