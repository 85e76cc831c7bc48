"""The run record: one JSON document per campaign/streaming run.

The paper's Table 7 attributes every job's wall time to startup /
evaluation / output phases; the run record reconstructs that accounting
from *real* spans and reports, per stage, alongside worker-pool
occupancy, cache ledgers and retry/fault history — a common schema the
``bench_*.py`` artifacts and the planned regression harness consume.

The schema is deliberately small and validated by a dependency-free
subset-of-JSON-Schema checker (:func:`validate_run_record`), so CI can
assert structural compatibility without adding packages.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

__all__ = [
    "RUN_RECORD_SCHEMA",
    "RUN_RECORD_VERSION",
    "build_run_record",
    "stage_entry",
    "validate_run_record",
]

RUN_RECORD_VERSION = 1

_NUMBER = {"type": "number"}
_STRING = {"type": "string"}

PHASES_SCHEMA = {
    "type": "object",
    "required": ["startup", "evaluation", "output", "other"],
    "properties": {
        "startup": _NUMBER,
        "evaluation": _NUMBER,
        "output": _NUMBER,
        "other": _NUMBER,
    },
}

STAGE_SCHEMA = {
    "type": "object",
    "required": ["name", "status", "duration_s", "phases", "attempts", "retries", "faults"],
    "properties": {
        "name": _STRING,
        "status": {"type": "string", "enum": ["executed", "restored", "failed"]},
        "duration_s": _NUMBER,
        "phases": PHASES_SCHEMA,
        "attempts": {"type": "integer"},
        "retries": {"type": "integer"},
        "faults": {"type": "array", "items": _STRING},
        "extra": {"type": "object"},
    },
}

WORKERS_SCHEMA = {
    "type": "object",
    "required": ["count", "occupancy"],
    "properties": {
        "count": {"type": "integer"},
        "occupancy": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["worker", "busy_s", "utilization"],
                "properties": {
                    "worker": {"type": "integer"},
                    "busy_s": _NUMBER,
                    "utilization": _NUMBER,
                },
            },
        },
    },
}

RUN_RECORD_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version",
        "kind",
        "created_unix",
        "duration_s",
        "stages",
        "metrics",
        "trace",
        "faults",
    ],
    "properties": {
        "schema_version": {"type": "integer"},
        "kind": _STRING,
        "created_unix": _NUMBER,
        "duration_s": _NUMBER,
        "stages": {"type": "array", "items": STAGE_SCHEMA},
        "workers": WORKERS_SCHEMA,
        "caches": {"type": "object"},
        "metrics": {"type": "object"},
        "trace": {
            "type": "object",
            "required": ["num_spans"],
            "properties": {"num_spans": {"type": "integer"}},
        },
        "faults": {"type": "array", "items": _STRING},
        "extra": {"type": "object"},
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _validate(value, schema: Mapping, path: str, errors: list[str]) -> None:
    expected = schema.get("type")
    if expected is not None and not _TYPE_CHECKS[expected](value):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if expected == "object":
        for required in schema.get("required", ()):
            if required not in value:
                errors.append(f"{path}: missing required key '{required}'")
        for key, subschema in schema.get("properties", {}).items():
            if key in value:
                _validate(value[key], subschema, f"{path}.{key}", errors)
    elif expected == "array" and "items" in schema:
        for index, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{index}]", errors)


def validate_run_record(record: Mapping) -> None:
    """Raise ``ValueError`` listing every schema violation in ``record``."""
    errors: list[str] = []
    _validate(record, RUN_RECORD_SCHEMA, "$", errors)
    if errors:
        raise ValueError("invalid run record:\n  " + "\n  ".join(errors))


# --------------------------------------------------------------------------- #
# builders
# --------------------------------------------------------------------------- #
def stage_entry(
    name: str,
    status: str,
    duration_s: float,
    phases: Mapping[str, float] | None = None,
    *,
    attempts: int = 1,
    retries: int = 0,
    faults: Sequence[str] = (),
    extra: Mapping | None = None,
) -> dict:
    """One per-stage record with the Table 7 phase accounting closed.

    ``phases`` may name any subset of startup/evaluation/output; the
    remainder of the stage's measured wall time lands in ``other``, so
    for serially-sectioned stages the four phase totals sum exactly to
    ``duration_s`` (the invariant the run-record tests assert for the
    streamed screen).  Phases measured on *concurrent* worker jobs are
    summed worker-seconds — Table 7's per-job semantics — and may
    exceed the stage wall clock; ``other`` clamps at zero then.
    """
    phases = dict(phases or {})
    entry_phases = {phase: float(phases.get(phase, 0.0)) for phase in ("startup", "evaluation", "output")}
    accounted = sum(entry_phases.values())
    entry_phases["other"] = max(float(duration_s) - accounted, 0.0)
    entry = {
        "name": str(name),
        "status": str(status),
        "duration_s": float(duration_s),
        "phases": entry_phases,
        "attempts": int(attempts),
        "retries": int(retries),
        "faults": [str(fault) for fault in faults],
    }
    if extra:
        entry["extra"] = _jsonable(extra)
    return entry


def worker_occupancy(busy_by_worker: Mapping[int, float], wall_s: float) -> dict:
    """The ``workers`` block: per-worker busy time against the run's wall."""
    wall = max(float(wall_s), 1e-12)
    return {
        "count": len(busy_by_worker),
        "occupancy": [
            {"worker": int(worker), "busy_s": float(busy), "utilization": float(busy) / wall}
            for worker, busy in sorted(busy_by_worker.items())
        ],
    }


def build_run_record(
    kind: str,
    *,
    duration_s: float,
    stages: Sequence[Mapping],
    metrics: Mapping | None = None,
    workers: Mapping | None = None,
    caches: Mapping | None = None,
    trace: Mapping | None = None,
    faults: Sequence[str] = (),
    extra: Mapping | None = None,
) -> dict:
    """Assemble (and structurally sanitize) one run-record document."""
    record = {
        "schema_version": RUN_RECORD_VERSION,
        "kind": str(kind),
        "created_unix": time.time(),
        "duration_s": float(duration_s),
        "stages": [dict(stage) for stage in stages],
        "metrics": _jsonable(metrics or {}),
        "trace": {"num_spans": int((trace or {}).get("num_spans", 0)), **_jsonable({k: v for k, v in (trace or {}).items() if k != "num_spans"})},
        "faults": [str(fault) for fault in faults],
    }
    if workers is not None:
        record["workers"] = _jsonable(workers)
    if caches is not None:
        record["caches"] = _jsonable(caches)
    if extra:
        record["extra"] = _jsonable(extra)
    return record


def _jsonable(value):
    """Coerce numpy scalars / tuples into plain JSON types, recursively."""
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return item()
    return str(value)
