"""The shared-memory segment name prefix, kept for leak checks.

The serving layer creates no shared-memory segments: every payload
rides the framed socket (:class:`repro.serving.protocol.FramedChannel`).
The measurement spine's hygiene check (``benchmarks/spine/run.py``)
still globs ``/dev/shm`` for segments a run left behind, and it finds
them by this prefix, so the prefix stays importable from here.
"""

from __future__ import annotations

import os


def segment_prefix() -> str:
    """Name prefix of any segment this process would create (leak
    checks glob for it)."""
    return f"repro_shm_{os.getpid()}_"
