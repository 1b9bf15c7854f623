"""Candidate fusion: per-field-name grouped reduce with selectable
strategy.

Re-expresses the reference fuser (``/root/reference/docvision/kie/fuse.py``):
field-name normalization (``:173-175``), quality filter with the
single-source confidence threshold (``:110-171``, threshold ``:135``),
candidate dedup on (source, value) (``:203-206``), weighted vote
(``:293-323``), consensus (``:342-373``), highest-confidence and
validator-priority selection (``:277-291, :325-340``), and status
determination from matching-source + validation counts (``:375-408``).

All functions are pure; the grouped reduce runs per document inside a
batch function — fields of one document never cross workers.

Intentional deviations from the reference (everything else follows its
branch structure): winner/value ties are broken deterministically by
(confidence, source, value) instead of dict insertion order, and
``_select_highest_confidence`` keeps all candidates rather than applying
the reference's ``min_confidence`` pre-filter (our quality filter already
dropped implausible candidates).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..config import (
    CONFIDENT_MIN_CONFIDENCE,
    FUSE_MIN_SINGLE_SOURCE_CONFIDENCE,
    FuseConfig,
)
from .validators import FieldTyper

_NAME_NORM_RE = re.compile(r"[ \-]+")


def normalize_field_name(name: str) -> str:
    return _NAME_NORM_RE.sub("_", (name or "").strip().lower())


@dataclass(frozen=True)
class Candidate:
    name: str
    value: str
    confidence: float
    source: str


@dataclass
class FusedField:
    name: str
    value: str
    normalized_value: str | None
    data_type: str
    confidence: float
    status: str
    n_candidates: int
    validators: list[dict] = field(default_factory=list)


def _value_key(value: str) -> str:
    return (value or "").strip().lower()


def quality_filter(cands: list[Candidate], cfg: FuseConfig,
                   typer: FieldTyper | None = None) -> list[Candidate]:
    """Drop empty values; drop low-confidence single-source candidates;
    drop type-implausible values for amount/date-named fields."""
    typer = typer or FieldTyper()
    by_name_sources: dict[str, set[str]] = {}
    for c in cands:
        by_name_sources.setdefault(c.name, set()).add(c.source)
    out = []
    for c in cands:
        if not (c.value or "").strip():
            continue
        if (
            len(by_name_sources[c.name]) == 1
            and c.confidence < cfg.min_single_source_confidence
        ):
            continue
        lname = c.name.lower()
        if any(k in lname for k in ("total", "amount", "subtotal", "tax")) and not typer.looks_like_amount(c.value):
            continue
        if "date" in lname and not typer.looks_like_date(c.value):
            continue
        out.append(c)
    return out


def _dedup(cands: list[Candidate]) -> list[Candidate]:
    """Drop (source, value) duplicates WITHIN a field name (the reference
    dedups inside one field's candidate list, ``kie/fuse.py:203-206`` —
    two different fields may legitimately share a value)."""
    seen: set[tuple[str, str, str]] = set()
    out = []
    for c in cands:
        key = (c.name, c.source, _value_key(c.value))
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def _select_weighted_vote(cands: list[Candidate], weights: dict[str, float],
                          _typer: FieldTyper) -> Candidate:
    groups: dict[str, list[Candidate]] = {}
    for c in cands:
        groups.setdefault(_value_key(c.value), []).append(c)
    def score(key: str) -> float:
        return sum(c.confidence * weights.get(c.source, 0.5) for c in groups[key])
    best_key = max(sorted(groups), key=score)
    return max(groups[best_key], key=lambda c: (c.confidence, c.source))


def _select_consensus(cands: list[Candidate], weights: dict[str, float],
                      typer: FieldTyper) -> Candidate:
    """Reference ``_select_consensus`` (``kie/fuse.py:342-373``): any value
    appearing more than once wins (count-based, no strict-majority gate);
    winner is the highest-confidence candidate of the most-repeated value.
    Deterministic tie-break across equally-repeated values replaces the
    reference's dict-insertion-order walk."""
    groups: dict[str, list[Candidate]] = {}
    for c in cands:
        groups.setdefault(_value_key(c.value), []).append(c)
    max_count = max(len(g) for g in groups.values())
    if max_count > 1:
        tied = [k for k in sorted(groups) if len(groups[k]) == max_count]
        best_key = max(tied, key=lambda k: (max((c.confidence, c.source) for c in groups[k]), k))
        return max(groups[best_key], key=lambda c: (c.confidence, c.source))
    return _select_weighted_vote(cands, weights, typer)


def _select_highest_confidence(cands: list[Candidate], _w: dict[str, float],
                               _typer: FieldTyper) -> Candidate:
    return max(cands, key=lambda c: (c.confidence, c.source, _value_key(c.value)))


def _validation_ratio(c: Candidate, typer: FieldTyper) -> float:
    """Pass-ratio of the candidate's own validators (the analog of the
    reference's per-candidate ``validation_passed``/``validation_total``
    metadata, ``kie/fuse.py:325-340``)."""
    vres = typer.validate_field(c.name, c.value, typer.infer_data_type(c.name, c.value))
    if not vres:
        return 0.0
    return sum(1 for v in vres if v["passed"]) / len(vres)


def _select_validator_priority(cands: list[Candidate], _w: dict[str, float],
                               typer: FieldTyper) -> Candidate:
    """Reference ``_select_validator_priority`` (``kie/fuse.py:325-340``):
    lexicographic max on (validation pass-ratio, confidence), with a
    deterministic (source, value) tie-break."""
    return max(cands, key=lambda c: (_validation_ratio(c, typer), c.confidence, c.source,
                                     _value_key(c.value)))


_STRATEGIES = {
    "weighted_vote": _select_weighted_vote,
    "consensus": _select_consensus,
    "highest_confidence": _select_highest_confidence,
    "validator_priority": _select_validator_priority,
}


def _determine_status(winner: Candidate, cands: list[Candidate], validators: list[dict]) -> str:
    """Reference ``_determine_status`` branch order (``kie/fuse.py:375-408``):
    validated → validation_failed → confident (≥2 sources AND confidence ≥
    0.7) → single_source → uncertain (<0.5) → confident."""
    total = len(validators)
    passed = sum(1 for v in validators if v["passed"])
    if total > 0 and passed == total:
        return "validated"
    if total > 0:
        return "validation_failed"
    matching_sources = {
        c.source for c in cands if _value_key(c.value) == _value_key(winner.value)
    }
    if len(matching_sources) >= 2 and winner.confidence >= CONFIDENT_MIN_CONFIDENCE:
        return "confident"
    if len(matching_sources) == 1:
        return "single_source"
    if winner.confidence < 0.5:
        return "uncertain"
    return "confident"


def fuse_fields(
    candidates: list[Candidate],
    cfg: FuseConfig,
    run_validators: bool = True,
) -> list[FusedField]:
    """All candidates of ONE document → fused fields, sorted by name."""
    weights = dict(cfg.source_weights)
    typer = FieldTyper()
    cands = [
        Candidate(normalize_field_name(c.name), c.value, c.confidence, c.source)
        for c in candidates
    ]
    cands = quality_filter(_dedup(cands), cfg, typer)
    by_name: dict[str, list[Candidate]] = {}
    for c in cands:
        by_name.setdefault(c.name, []).append(c)

    try:
        select = _STRATEGIES[cfg.strategy]
    except KeyError:
        raise ValueError(
            f"unknown fuse strategy {cfg.strategy!r}; expected one of {sorted(_STRATEGIES)}"
        ) from None
    fused: list[FusedField] = []
    winners: dict[str, str] = {}
    winner_by_name: dict[str, Candidate] = {}
    for name in sorted(by_name):
        group = by_name[name]
        winner = select(group, weights, typer)
        winner_by_name[name] = winner
        data_type = typer.infer_data_type(name, winner.value)
        norm = typer.normalize_value(data_type, winner.value)
        winners[name] = norm if norm is not None else winner.value
        vres = typer.validate_field(name, winner.value, data_type) if run_validators else []
        fused.append(
            FusedField(
                name=name,
                value=winner.value,
                normalized_value=norm,
                data_type=data_type,
                confidence=winner.confidence,
                status="",  # set after consistency pass
                n_candidates=len(group),
                validators=vres,
            )
        )
    if run_validators:
        consistency = typer.check_document_consistency(winners)
        cons_by_field = {"total": [], "subtotal": [], "tax": [], "date": [], "due_date": []}
        for v in consistency:
            if v["name"] == "total_equals_subtotal_plus_tax":
                for f in ("total", "subtotal", "tax"):
                    cons_by_field[f].append(v)
            else:
                for f in ("date", "due_date"):
                    cons_by_field[f].append(v)
        for f in fused:
            f.validators = f.validators + cons_by_field.get(f.name, [])
    for f in fused:
        f.status = _determine_status(winner_by_name[f.name], by_name[f.name], f.validators)
    return fused
