"""Regulation language: parsing, expansion, runnable SQL, token budgets.

A regulation is ``((worker, platform, requester), <|>, threshold)`` where each
position is an identifier, ``*`` (whatever), or ``forall`` (one regulation per
member of that group). ``<`` regulations are enforceable upper bounds backed
by e-token budgets; ``>`` regulations are verifiable lower bounds backed by
v-token proofs.

Each expanded regulation also has the paper's form, an integrity constraint
over the U-table of processes: `to_sql` gives the query that stdlib
`sqlite3` runs against a table made by `U_TABLE`. It is built apart from the
token path, so it can check that path.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
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


class RegulationKind(str, Enum):
    ENFORCEABLE = "<"  # an upper bound that must always hold
    VERIFIABLE = ">"  # a lower bound that must hold at period end


@dataclass(frozen=True, order=True, slots=True)
class TriplePattern:
    """(worker, platform, requester) pattern; entries are ids, '*' or 'forall'.

    Its targets are derived once, when it is built (and rebuilt by
    `dataclasses.replace`), since they depend on the entries alone; they take
    no part in comparison, ordering or hashing.
    """

    worker: str
    platform: str
    requester: str
    _targets: Tuple[Tuple[str, str], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        targets = tuple((role, e) for role, e in zip(ROLES, self.entries()) if e not in (STAR, FORALL))
        object.__setattr__(self, "_targets", targets)

    def entries(self) -> Tuple[str, str, str]:
        return (self.worker, self.platform, self.requester)

    def targets(self) -> Tuple[Tuple[str, str], ...]:
        """(role, id) pairs for the non-wildcard positions, in `ROLES` order."""
        return self._targets

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
    kind: RegulationKind
    threshold: int

    def render(self) -> str:
        return f"({self.pattern.render()}, {self.kind.value}, {self.threshold})"


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
    return Regulation(pattern, RegulationKind(m.group(4)), threshold)


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
        out.append(Regulation(TriplePattern(w, p, r), reg.kind, reg.threshold))
    return out


def expand_all(regs: Iterable[Regulation], registry: ParticipantRegistry) -> List[Regulation]:
    out: List[Regulation] = []
    for reg in regs:
        out.extend(expand_forall(reg, registry))
    return out


# --- SQL ---

U_TABLE = f"CREATE TABLE u ({', '.join(ROLES)})"


def to_sql(reg: Regulation) -> Tuple[str, Tuple[object, ...]]:
    """The query, with its ``?`` parameters, that yields 1 when `reg` holds
    over the rows of table ``u`` (`U_TABLE`), one (worker, platform,
    requester) row per process.

    It is ``SELECT COUNT(*) <|> ? FROM u WHERE ...``, the WHERE clause fixing
    each column the pattern names and left out for ``(*, *, *)``. An expanded
    pattern fixes every column it names, so one count decides it. The count
    is the paper's ``SUM(TIMECOST)``, because the token model charges one
    token per process.
    """
    if reg.pattern.has_forall():
        raise UnexpandedForAllError(f"expand {reg.render()} before compiling it to SQL")
    targets = reg.pattern.targets()
    where = " WHERE " + " AND ".join(f"{role} = ?" for role, _ in targets) if targets else ""
    return f"SELECT COUNT(*) {reg.kind.value} ? FROM u{where}", (reg.threshold, *(ident for _, ident in targets))


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
