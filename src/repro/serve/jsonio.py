"""JSON codecs for the serving layer's wire format.

Everything that crosses the HTTP boundary is plain JSON built from
small value types: :class:`SimJob` descriptors (~50 bytes of
primitives), :class:`EvalSettings`, and the stored forms of results,
which need no codec here: the server splices each one into its reply as
the store holds it, and the client decodes it with the store path's
:func:`repro.eval.parallel._decode`.  The codecs here are strict
round-trips — ``job_from_dict(job_to_dict(j)) == j`` for every field,
including tuples (JSON lists are converted back) and the nested
:class:`PolicyOptimizations` — so a served job is *the same value* the
client would have executed locally, and its content-addressed result
key (:func:`repro.eval.parallel.result_key`) is identical on both
sides.  Unknown fields are rejected rather than dropped: a key silently
missing on one side would silently change what gets simulated.
"""

from dataclasses import asdict, fields
from operator import attrgetter
from typing import Any, Dict

from repro.core.config import PolicyOptimizations
from repro.eval.parallel import SimJob
from repro.eval.settings import EvalSettings

__all__ = [
    "job_from_dict", "job_to_dict", "settings_from_dict",
    "settings_to_dict",
]

_JOB_FIELDS = tuple(f.name for f in fields(SimJob))
_SETTINGS_FIELDS = {f.name for f in fields(EvalSettings)}
_OPTS_FIELDS = tuple(f.name for f in fields(PolicyOptimizations))
_job_values = attrgetter(*_JOB_FIELDS)
_opts_values = attrgetter(*_OPTS_FIELDS)


def job_to_dict(job: SimJob) -> Dict[str, Any]:
    """One job as JSON-safe primitives (tuples become lists): what
    ``asdict`` gives, read through precomputed field lists, since every
    other field is a primitive that needs no deep copy."""
    d = dict(zip(_JOB_FIELDS, _job_values(job)))
    d["config"] = list(job.config)
    d["volatile_segments"] = list(job.volatile_segments)
    opts = job.opts
    d["opts"] = None if opts is None else dict(
        zip(_OPTS_FIELDS, _opts_values(opts)))
    return d


def job_from_dict(d: Dict[str, Any]) -> SimJob:
    """The exact :class:`SimJob` value ``job_to_dict`` encoded."""
    unknown = set(d).difference(_JOB_FIELDS)
    if unknown:
        raise ValueError(f"unknown SimJob fields: {sorted(unknown)}")
    kwargs = dict(d)
    kwargs["config"] = tuple(int(v) for v in kwargs["config"])
    kwargs["volatile_segments"] = tuple(
        kwargs.get("volatile_segments") or ()
    )
    opts = kwargs.get("opts")
    if opts is not None:
        bad = set(opts).difference(_OPTS_FIELDS)
        if bad:
            raise ValueError(
                f"unknown PolicyOptimizations fields: {sorted(bad)}"
            )
        kwargs["opts"] = PolicyOptimizations(**opts)
    return SimJob(**kwargs)


def settings_to_dict(settings: EvalSettings) -> Dict[str, Any]:
    """Evaluation settings as JSON-safe primitives."""
    return asdict(settings)


def settings_from_dict(d: Dict[str, Any]) -> EvalSettings:
    """The exact :class:`EvalSettings` value ``settings_to_dict`` encoded."""
    unknown = set(d) - _SETTINGS_FIELDS
    if unknown:
        raise ValueError(f"unknown EvalSettings fields: {sorted(unknown)}")
    return EvalSettings(**d)
