"""Service-level message vocabulary, request normalization, cache keys.

The wire format is the RPX1 frame protocol unchanged
(:mod:`repro.parallel.protocol`); this module defines what rides
*inside* the frames between a client and the daemon -- plain tuples
keyed by a kind tag, exactly like the supervisor/worker messages -- and
how a request maps to the fingerprint that keys the result cache.

Cache keys build on the fingerprints the checkpoint machinery already
computes (:func:`repro.lang.checkpoint.fingerprint`): two submissions
are *the same job* iff they agree on the object program, the client
bounds/workload, the requested property (``lin`` / ``lockfree`` /
``explore``) and the verdict-affecting options (``method``).
``max_states`` is excluded for the same reason checkpoints exclude it,
and engine/reduce toggles are excluded because they are proven
verdict-preserving (the differential suite exists to keep it that way)
-- a cache hit must never depend on how fast the answer was computed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from ..lang.checkpoint import fingerprint
from ..objects import get
from ..verify.jobs import Job

# ----------------------------------------------------------------------
# client -> daemon
# ----------------------------------------------------------------------
MSG_SUBMIT = "submit"      # (MSG_SUBMIT, request_dict)
MSG_STATUS = "status"      # (MSG_STATUS,)
MSG_PING = "ping"          # (MSG_PING,)

# ----------------------------------------------------------------------
# daemon -> client
# ----------------------------------------------------------------------
MSG_ACCEPTED = "accepted"    # (MSG_ACCEPTED, job_id, meta_dict)
MSG_REJECTED = "rejected"    # (MSG_REJECTED, reason_str)
MSG_PROGRESS = "progress"    # (MSG_PROGRESS, job_id, progress_dict)
MSG_RESULT = "result"        # (MSG_RESULT, job_id, result_dict)
MSG_HEARTBEAT = "heartbeat"  # (MSG_HEARTBEAT,) -- idle-connection keepalive
MSG_STATUS_REPLY = "status-reply"  # (MSG_STATUS_REPLY, status_dict)
MSG_PONG = "pong"            # (MSG_PONG,)
MSG_CLOSING = "closing"      # (MSG_CLOSING, reason_str) -- graceful shutdown

def parse_submission(payload: Any) -> Tuple[Job, Optional[float]]:
    """Split one submitted request dict into its :class:`Job` and its
    per-job ``deadline`` (seconds, or None).

    Raises ``TypeError`` / ``ValueError`` for a malformed request -- the
    daemon calls this on every received submission, so a bad one is a
    per-connection error, never a daemon crash.
    """
    if not isinstance(payload, dict):
        raise ValueError("submission payload must be a dict")
    fields = dict(payload)
    deadline = fields.pop("deadline", None)
    return Job(**fields), deadline


def service_fingerprint(job: Job) -> Dict[str, Any]:
    """The cache-identity of a job (see module docstring).

    Reuses the checkpoint fingerprint for the exploration identity and
    adds the property being checked.  Deliberately excluded: resource
    caps (``max_states``, and the submission's ``deadline``, which is
    not part of the job at all), performance toggles (``reduce``,
    ``engine``) -- none of them can change a *decided* verdict, and only
    decided verdicts are ever cached.
    """
    return {
        "schema": "repro.service-fingerprint/v1",
        "kind": job.kind,
        "method": job.method,
        "impl": fingerprint(get(job.key).build(job.threads),
                            job.client_config()),
    }


def _canonical(value: Any) -> Any:
    """Recursively JSON-able form with deterministic ordering."""
    if isinstance(value, dict):
        return {
            str(k): _canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def cache_key(fingerprint_dict: Dict[str, Any]) -> str:
    """Stable hex digest of a (service) fingerprint dict.

    The digest doubles as the entry's file name, so it must be stable
    across processes and Python hash randomization -- hence canonical
    JSON + SHA-256, never ``hash()``.
    """
    text = json.dumps(_canonical(fingerprint_dict), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def request_cache_key(job: Job) -> str:
    """Convenience: the cache key of a job."""
    return cache_key(service_fingerprint(job))
