"""Spans and counters recorded around the library's public functions.

``Tracer.installed()`` replaces each traced function with a wrapper in every
loaded module that holds it, so names imported by name (``sign`` in
``tokens``, ``verify`` in ``ledger``) are wrapped too, and puts the originals
back on exit. Nothing is wrapped while no tracer is installed.

A span is (name, start, end, parent span index, process slot). A span's self
time is its duration minus the time its child spans cover. Calls, self time
and counters are keyed by phase (setup, process, scan, audit).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from crowdreg import credentials, ledger, regulation, tokens

SPANNED = {
    "credentials": (credentials, ("sign", "verify", "seal", "group_sign", "group_verify", "group_open")),
    "tokens": (
        tokens,
        ("generate", "spend", "check", "scan_and_alert", "scan_platform_failure", "prove", "verify_proof", "adjudicate"),
    ),
    "ledger": (ledger, ("validate_block",)),
    "regulation": (regulation, ("applicable",)),
}


def _wallet_records(wallet: tokens.Wallet) -> int:
    return sum(len(recs) for recs in wallet.etokens.values()) + sum(
        len(recs) for recs in wallet.vtokens.values()
    )


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.process = -1
        self.spans: list = []
        self._stack: list = []  # [span index, name, child time]
        self.calls = Counter()  # (phase, name, parent name)
        self.self_s = Counter()  # (phase, name) -> seconds
        self.counts = Counter()  # (phase, counter name)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        frame = [index, name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            self.spans[index] = (name, start, end, parent[0] if parent else -1, self.process)
            self.self_s[(self.phase, name)] += duration - frame[2]
            self.calls[(self.phase, name, parent[1] if parent else "")] += 1

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, fn, count):
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            for name, amount in count(obj):
                self.counts[(self.phase, name)] += amount
            return fn(obj, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        replaced = {}  # id of original function -> (original, wrapper)
        for layer, (module, names) in SPANNED.items():
            for name in names:
                fn = getattr(module, name)
                replaced[id(fn)] = (fn, self._spanned(f"{layer}.{name}", fn))
        patches = [
            (module, attr, replaced[id(value)][1])
            for module in list(sys.modules.values())
            if getattr(module, "__name__", "").startswith(("crowdreg", "pipebench"))
            for attr, value in list(vars(module).items())
            if replaced.get(id(value), (None,))[0] is value
        ]
        wallet_scan = lambda w: (("tokens.wallet.records_scanned", _wallet_records(w)),)
        view_scan = lambda v: (("ledger.committed_nonces.calls", 1), ("ledger.blocks_scanned", len(v.order)))
        patches += [
            (tokens.Wallet, "received_nonces", self._counted(tokens.Wallet.received_nonces, wallet_scan)),
            (tokens.Wallet, "unspent_etoken", self._counted(tokens.Wallet.unspent_etoken, wallet_scan)),
            (tokens.Wallet, "unspent_vtoken", self._counted(tokens.Wallet.unspent_vtoken, wallet_scan)),
            (ledger.LedgerView, "committed_nonces", self._counted(ledger.LedgerView.committed_nonces, view_scan)),
            (ledger.LedgerView, "append_block", self._spanned("ledger.append_block", ledger.LedgerView.append_block)),
        ]
        saved = [(target, attr, vars(target)[attr]) for target, attr, _ in patches]
        try:
            for target, attr, wrapper in patches:
                setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in saved:
                setattr(target, attr, original)

    # --- aggregates ---

    def calls_of(self, phase: str, name: str, parent: str | None = None) -> int:
        return sum(
            n for (ph, nm, par), n in self.calls.items()
            if ph == phase and nm == name and (parent is None or par == parent)
        )

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
