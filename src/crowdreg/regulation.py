"""Regulation language: parsing, expansion, SQL emission, token budgets.

A regulation is ``((worker, platform, requester), <|>, threshold)`` where each
position is an identifier, ``*`` (whatever), or ``forall`` (one regulation per
member of that group). ``<`` regulations are enforceable upper bounds backed
by e-token budgets; ``>`` regulations are verifiable lower bounds backed by
v-token proofs.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Dict, Iterable, List, Tuple

from .errors import (
    ConfigError,
    EmptyRegistryError,
    NoEnforceableRegulationError,
    RegulationSyntaxError,
    ThresholdRangeError,
    UnexpandedForAllError,
    UnknownParticipantError,
)

STAR = "*"
FORALL = "forall"

ROLES = ("worker", "platform", "requester")


class Comparator(str, Enum):
    LESS_THAN = "<"
    GREATER_THAN = ">"


class RegulationKind(str, Enum):
    ENFORCEABLE = "enforceable"  # must always hold
    VERIFIABLE = "verifiable"  # must hold at period end


@dataclass(frozen=True, order=True, slots=True)
class TriplePattern:
    """(worker, platform, requester) pattern; entries are ids, '*' or 'forall'."""

    worker: str
    platform: str
    requester: str

    def entries(self) -> Tuple[str, str, str]:
        return (self.worker, self.platform, self.requester)

    def targets(self) -> Tuple[Tuple[str, str], ...]:
        """(role, id) pairs for the non-wildcard positions."""
        return tuple(
            (role, e)
            for role, e in zip(ROLES, self.entries())
            if e not in (STAR, FORALL)
        )

    def has_forall(self) -> bool:
        return FORALL in self.entries()

    def matches(self, tup: Tuple[str, str, str]) -> bool:
        """True if a concrete (w, p, r) process tuple matches this pattern."""
        w, p, r = tup
        return (
            (self.worker == STAR or self.worker == w)
            and (self.platform == STAR or self.platform == p)
            and (self.requester == STAR or self.requester == r)
        )

    def render(self) -> str:
        return "(" + ", ".join(self.entries()) + ")"


@dataclass(frozen=True, order=True, slots=True)
class Regulation:
    pattern: TriplePattern
    comparator: Comparator
    threshold: int

    @property
    def kind(self) -> RegulationKind:
        if self.comparator == Comparator.LESS_THAN:
            return RegulationKind.ENFORCEABLE
        return RegulationKind.VERIFIABLE

    def render(self) -> str:
        return f"({self.pattern.render()}, {self.comparator.value}, {self.threshold})"


@dataclass(frozen=True, slots=True)
class ParticipantRegistry:
    """Ordered participant ids, each listed once and in one role; immutable
    for a token epoch. Each group is a tuple of str. Raises ConfigError for
    another group or an id listed twice."""

    workers: Tuple[str, ...]
    platforms: Tuple[str, ...]
    requesters: Tuple[str, ...]

    def __post_init__(self):
        for group in (self.workers, self.platforms, self.requesters):
            if type(group) is not tuple or not set(map(type, group)) <= {str}:
                raise ConfigError(f"participant group {group!r} is not a tuple of str ids")
        repeated = sorted(pid for pid, n in Counter(self.all_ids()).items() if n > 1)
        if repeated:
            raise ConfigError(f"duplicate ids {repeated}: each id is listed once, in one role")

    def group(self, role: str) -> Tuple[str, ...]:
        return {"worker": self.workers, "platform": self.platforms, "requester": self.requesters}[role]

    def all_ids(self) -> Tuple[str, ...]:
        return self.workers + self.platforms + self.requesters

    def role_of(self, participant: str) -> str:
        """The role that lists `participant`; raises UnknownParticipantError
        if none does."""
        for role in ROLES:
            if participant in self.group(role):
                return role
        raise UnknownParticipantError(f"{participant!r} is not registered")

    def tuples(self) -> Iterable[Tuple[str, str, str]]:
        return product(self.workers, self.platforms, self.requesters)


# --- parsing ---

_WS = r"\s*"
_ENTRY = r"(\*|[A-Za-z0-9_]+)"
_REG_RE = re.compile(
    _WS.join(
        (
            r"^",
            r"\(", r"\(", _ENTRY, r",", _ENTRY, r",", _ENTRY, r"\)",
            r",", r"(<|>)", r",", r"(-?\d+)", r"\)", r"$",
        )
    )
)


def parse_regulation(text: str) -> Regulation:
    """Parse ``((w, p, r), <|>, n)``; whitespace between tokens is ignored."""
    m = _REG_RE.match(text)
    if not m:
        raise RegulationSyntaxError(f"malformed regulation: {text!r}")
    entries = list(m.group(1, 2, 3))
    threshold = int(m.group(5))
    if threshold < 0:
        raise ThresholdRangeError(f"negative threshold in {text!r}")
    pattern = TriplePattern(*entries)
    return Regulation(pattern, Comparator(m.group(4)), threshold)


def load_regulation_file(path) -> List[Regulation]:
    """One regulation per line; '#' starts a comment; blank lines ignored."""
    regs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                regs.append(parse_regulation(body))
            except (RegulationSyntaxError, ThresholdRangeError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    return regs


# --- forall expansion ---


def expand_forall(reg: Regulation, registry: ParticipantRegistry) -> List[Regulation]:
    """One regulation per element of the cartesian product over forall positions."""
    choices = []
    for role, entry in zip(ROLES, reg.pattern.entries()):
        if entry == FORALL:
            members = registry.group(role)
            if not members:
                raise EmptyRegistryError(f"forall over empty {role} registry")
            choices.append(members)
        else:
            choices.append((entry,))
    out = []
    for w, p, r in product(*choices):
        out.append(Regulation(TriplePattern(w, p, r), reg.comparator, reg.threshold))
    return out


def expand_all(regs: Iterable[Regulation], registry: ParticipantRegistry) -> List[Regulation]:
    out: List[Regulation] = []
    for reg in regs:
        out.extend(expand_forall(reg, registry))
    return out


# --- SQL emission ---

_COLUMNS = {"worker": "WORKER", "platform": "PLATFORM", "requester": "REQUESTER"}


def constraint_name(reg: Regulation) -> str:
    parts = [e if e != STAR else "any" for e in reg.pattern.entries()]
    cmp_word = "lt" if reg.comparator == Comparator.LESS_THAN else "gt"
    return "r_" + "_".join(parts + [cmp_word, str(reg.threshold)])


def to_sql(reg: Regulation) -> str:
    """Emit the CHECK-constraint text documenting one expanded regulation.

    Verifiable (>) regulations get the comparator-flipped body plus a
    ``-- DEFERRED`` marker: the bound may only be violated transiently, so the
    constraint holds at period end. The text is documentation output, never
    executed.
    """
    if reg.pattern.has_forall():
        raise UnexpandedForAllError(f"expand {reg.render()} before emitting SQL")
    targets = reg.pattern.targets()
    lines = [f"ALTER TABLE U-TABLE ADD CONSTRAINT {constraint_name(reg)} CHECK ("]
    lines.append("  NOT EXISTS (")
    lines.append("    SELECT * FROM U-TABLE")
    if targets:
        where = " AND ".join(f"{_COLUMNS[role]}={ident}" for role, ident in targets)
        lines.append(f"    WHERE {where}")
        group_by = ", ".join(_COLUMNS[role] for role, _ in targets)
        lines.append(f"    GROUP BY {group_by}")
    if reg.comparator == Comparator.LESS_THAN:
        lines.append(f"    HAVING SUM(TIMECOST) >= {reg.threshold}")
        lines.append("  ) );")
    else:
        lines.append(f"    HAVING SUM(TIMECOST) <= {reg.threshold}")
        lines.append("  ) ); -- DEFERRED")
    return "\n".join(lines)


def to_sql_document(regs: Iterable[Regulation]) -> str:
    """Concatenate constraints with blank-line separators."""
    return "\n\n".join(to_sql(reg) for reg in regs) + "\n"


# --- budgets ---


@dataclass(frozen=True, slots=True)
class BudgetPlan:
    """Per-pattern e-token counts plus the global v-token budget.

    A regulation stored as ((w, p, r), <, T) authorizes T-1 processes, so each
    expanded pattern receives T-1 e-tokens. Identical patterns from several
    regulations collapse to the tightest count. theta_min is the smallest
    enforceable budget and sizes the v-token pool:
    theta_min * |W| * |P| * |R|.
    """

    etokens: Tuple[Tuple[TriplePattern, int], ...]
    theta_min: int
    vtoken_total: int


def _pattern_sort_key(registry: ParticipantRegistry):
    def key(pattern: TriplePattern):
        out = []
        for role, entry in zip(ROLES, pattern.entries()):
            ids = registry.group(role)
            out.append(-1 if entry == STAR else ids.index(entry) if entry in ids else len(ids))
        return tuple(out)

    return key


def compute_budget(regs: List[Regulation], registry: ParticipantRegistry) -> BudgetPlan:
    """Token budgets for a fully expanded regulation list."""
    for reg in regs:
        if reg.pattern.has_forall():
            raise UnexpandedForAllError(f"{reg.render()} still has forall")
    enforceable = [r for r in regs if r.kind == RegulationKind.ENFORCEABLE]
    if not enforceable:
        raise NoEnforceableRegulationError("no enforceable regulation: theta_min undefined")
    counts: Dict[TriplePattern, int] = {}
    for reg in enforceable:
        tokens = max(reg.threshold - 1, 0)
        prev = counts.get(reg.pattern)
        counts[reg.pattern] = tokens if prev is None else min(prev, tokens)
    theta_min = min(max(r.threshold - 1, 0) for r in enforceable)
    vtotal = theta_min * len(registry.workers) * len(registry.platforms) * len(registry.requesters)
    ordered = sorted(counts, key=_pattern_sort_key(registry))
    return BudgetPlan(
        etokens=tuple((p, counts[p]) for p in ordered),
        theta_min=theta_min,
        vtoken_total=vtotal,
    )


def applicable(regs: Iterable[Regulation], tup: Tuple[str, str, str]) -> List[Regulation]:
    """Expanded regulations whose pattern matches a concrete process tuple."""
    return [r for r in regs if r.pattern.matches(tup)]
