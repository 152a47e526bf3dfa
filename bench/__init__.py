"""The repository benchmark (``python -m bench``; see ``bench/README.md``).

Stdlib only on the parent side; the units it spawns import ``repro``
from the checkout's ``src/``.
"""
