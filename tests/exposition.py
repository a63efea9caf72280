"""Conformance oracles for the two formats the ops plane serves.

:func:`validate_prometheus_text` checks a Prometheus text-exposition
document (``/metrics``, :meth:`repro.obs.MetricsRegistry.render`);
:func:`validate_chrome_trace` checks a Chrome-trace payload
(``/tracez``, :meth:`repro.obs.Tracer.export_chrome_trace`). Only tests
call them, so they live here, apart from the code they check; each
raises :class:`~repro.errors.CypressError` naming the first violation.
"""

import math
import re
from typing import Any, Dict, List, Set, Tuple

from repro.errors import CypressError

#: Prometheus metric-name grammar: may not start with a digit.
_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Sample-line grammar: name, optional {labels}, value, optional
#: timestamp. Label values are parsed (and escape-checked) separately.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)"
    r"(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)
_VALID_ESCAPES = {"\\\\", '\\"', "\\n"}
#: The kinds MetricsRegistry renders; a family of any other kind is
#: rejected rather than accepted unchecked.
_TYPE_KINDS = {"counter", "gauge", "untyped"}


def _parse_label_set(raw: str, where: str) -> Tuple[Tuple[str, str], ...]:
    pairs = []
    rest = raw
    while rest:
        match = _LABEL_PAIR.match(rest)
        if match is None:
            raise CypressError(f"{where}: malformed label pair in {raw!r}")
        value = match.group("value")
        index = 0
        while index < len(value):
            if value[index] == "\\":
                if value[index:index + 2] not in _VALID_ESCAPES:
                    raise CypressError(
                        f"{where}: invalid escape "
                        f"{value[index:index + 2]!r} in label value"
                    )
                index += 2
            else:
                index += 1
        pairs.append((match.group("name"), value))
        rest = rest[match.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise CypressError(
                f"{where}: expected ',' between labels in {raw!r}"
            )
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise CypressError(f"{where}: duplicate label names in {raw!r}")
    return tuple(pairs)


def _parse_sample_value(raw: str, where: str) -> float:
    if raw in ("+Inf", "-Inf", "NaN"):
        return {"+Inf": math.inf, "-Inf": -math.inf, "NaN": math.nan}[raw]
    try:
        return float(raw)
    except ValueError:
        raise CypressError(f"{where}: unparsable sample value {raw!r}")


def validate_prometheus_text(text: str) -> Dict[str, str]:
    """Strictly validate a Prometheus text-exposition document.

    The conformance oracle behind the ``/metrics`` endpoint (held to
    it over live HTTP in ``tests/test_ops.py``): a render that passes
    here parses in a real scraper. Checks the whole grammar and the semantic invariants —

    - every ``# HELP`` / ``# TYPE`` line is well-formed, names each
      family at most once, and precedes the family's samples;
    - every sample line parses (name, label set, value, optional
      timestamp), belongs to a family declared by ``# TYPE``, and uses
      only the legal label-value escapes (``\\\\``, ``\\"``, ``\\n``);
    - no duplicate ``(series name, label set)`` sample appears;
    - every ``# TYPE`` kind is ``counter``, ``gauge`` or ``untyped``
      (the kinds :class:`MetricsRegistry` renders);
    - counters never carry negative values;
    - the document ends with a newline.

    Args:
        text: a full exposition document (e.g.
            ``MetricsRegistry.render()`` output).

    Returns:
        ``{family name: kind}`` for every declared family.

    Raises:
        CypressError: the first conformance violation found.
    """
    if not isinstance(text, str) or not text:
        raise CypressError("exposition document must be non-empty text")
    if not text.endswith("\n"):
        raise CypressError("exposition document must end with a newline")
    types: Dict[str, str] = {}
    helps: Set[str] = set()
    seen_samples: Set[Tuple[str, tuple]] = set()
    sampled_families: Set[str] = set()
    for number, line in enumerate(text.split("\n")[:-1], start=1):
        where = f"line {number}"
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in (
                "HELP", "TYPE"
            ):
                # Arbitrary comments are legal; only malformed
                # HELP/TYPE-looking lines are rejected.
                if line.startswith(("# HELP", "# TYPE")):
                    raise CypressError(f"{where}: malformed {line!r}")
                continue
            keyword, name = parts[1], parts[2]
            if not _METRIC_NAME.match(name):
                raise CypressError(
                    f"{where}: invalid metric name {name!r}"
                )
            if keyword == "HELP":
                if name in helps:
                    raise CypressError(f"{where}: duplicate HELP {name}")
                helps.add(name)
            else:
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in _TYPE_KINDS:
                    raise CypressError(
                        f"{where}: invalid TYPE kind {kind!r}"
                    )
                if name in sampled_families:
                    raise CypressError(
                        f"{where}: TYPE {name} after its samples"
                    )
                if name in types:
                    raise CypressError(f"{where}: duplicate TYPE {name}")
                types[name] = kind
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise CypressError(f"{where}: malformed sample {line!r}")
        sample_name = match.group("name")
        labels = _parse_label_set(match.group("labels") or "", where)
        value = _parse_sample_value(match.group("value"), where)
        if sample_name not in types:
            raise CypressError(
                f"{where}: sample {sample_name!r} has no # TYPE"
            )
        sampled_families.add(sample_name)
        if types[sample_name] == "counter" and value < 0:
            raise CypressError(
                f"{where}: counter {sample_name} is negative ({value})"
            )
        dedup_key = (sample_name, labels)
        if dedup_key in seen_samples:
            raise CypressError(
                f"{where}: duplicate sample {sample_name}{dict(labels)}"
            )
        seen_samples.add(dedup_key)
    return types


def validate_chrome_trace(payload: Any) -> List[Dict[str, Any]]:
    """Validate a loaded Chrome-trace document's schema.

    Checks the contract the exporter promises — ``traceEvents`` is a
    list of complete events, each with ``name``, ``cat``, ``ph ==
    "X"``, numeric non-negative ``ts``/``dur``, integer ``pid``/``tid``
    — and returns the event list. The exporter round-trip test (and
    anything ingesting third-party traces) shares this one checker.

    Args:
        payload: the parsed JSON document.

    Returns:
        The validated ``traceEvents`` list.

    Raises:
        CypressError: any schema violation, naming the first offender.
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise CypressError("chrome trace must be an object with traceEvents")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise CypressError("traceEvents must be a list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise CypressError(f"{where} is not an object")
        for field in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
            if field not in event:
                raise CypressError(f"{where} missing field {field!r}")
        if event["ph"] != "X":
            raise CypressError(
                f"{where} has phase {event['ph']!r}; the exporter only "
                "emits complete (X) events"
            )
        for field in ("ts", "dur"):
            value = event[field]
            if not isinstance(value, (int, float)) or value < 0:
                raise CypressError(
                    f"{where}.{field} must be a non-negative number, "
                    f"got {value!r}"
                )
        for field in ("pid", "tid"):
            if not isinstance(event[field], int):
                raise CypressError(
                    f"{where}.{field} must be an integer, "
                    f"got {event[field]!r}"
                )
        if not isinstance(event["name"], str) or not event["name"]:
            raise CypressError(f"{where}.name must be a non-empty string")
    return events
