"""Sweep-as-a-service (``repro.serve``).

An asyncio job server plus a drop-in client that turn the sweep engine
into a shared appliance: many users (or CI shards) posting overlapping
:class:`~repro.eval.parallel.SimJob` batches cost one simulation per
*unique* job, because every request is addressed by the same
content-hash key the local result cache uses
(:func:`repro.eval.parallel.result_key`).

* :mod:`repro.serve.server` — the HTTP front, the memory/coalesced/
  disk dedupe funnel, and the one-thread bridge to the sweep
  engine.  ``python -m repro.serve`` runs it.
* :mod:`repro.serve.client` — the ``run_jobs``-shaped client the eval
  CLI installs under ``--server URL``.
* :mod:`repro.serve.jsonio` — strict round-trip JSON codecs for jobs
  and settings.

Stdlib only (asyncio streams; no web framework), like the rest of the
repo.
"""

from repro.serve.client import ServeClient, install, uninstall
from repro.serve.server import ServerHandle, SweepServer, start_in_background

__all__ = [
    "ServeClient", "ServerHandle", "SweepServer", "install",
    "start_in_background", "uninstall",
]
