"""Accounting invariants checked on the world at the end of every round.

Each function returns a list of violations; an empty list means the
invariant holds. They read wallets, the RA's issue record and the ledger
views, never the side-car ``Transaction.bundle``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Sequence

from crowdreg.ledger import LedgerView, TxKind
from crowdreg.tokens import RaLedger, Wallet


def _copies(wallets: Dict[str, Wallet]) -> Dict[bytes, list]:
    """nonce value -> [(owner, record)] over every wallet."""
    held = defaultdict(list)
    for owner in sorted(wallets):
        wallet = wallets[owner]
        for pool in (wallet.etokens, wallet.vtokens):
            for recs in pool.values():
                for rec in recs:
                    held[rec.nonce.value].append((owner, rec))
    return held


def accounting(wallets: Dict[str, Wallet], ra_ledger: RaLedger) -> List[str]:
    """issued = spent + unspent: every issued nonce sits in exactly its
    holders' wallets, once each, and no wallet holds a nonce never issued."""
    held = _copies(wallets)
    out = [f"unissued nonce {n.hex()}" for n in held if ra_ledger.get(n) is None]
    for nonce, issue in ra_ledger.records.items():
        owners = Counter(owner for owner, _ in held.get(nonce, ()))
        if owners != Counter(issue.holders):
            out.append(f"nonce {nonce.hex()} held by {dict(owners)}, issued to {issue.holders}")
    return out


def copies_disagree(wallets: Dict[str, Wallet]) -> List[str]:
    """All holders' copies of a token agree on whether and for what it was spent."""
    out = []
    for nonce, copies in _copies(wallets).items():
        states = {(rec.spent, rec.task_digest) for _, rec in copies}
        if len(states) > 1:
            out.append(f"nonce {nonce.hex()} copies disagree: {[o for o, _ in copies]}")
    return out


def committed_twice(views: Sequence[LedgerView], committed: Dict[bytes, List[bytes]]) -> List[str]:
    """A nonce is committed at most once across the union of views.

    ``committed`` maps each verification tx digest the benchmark committed to
    the nonces of its bundle. Every view's own ``committed_nonces`` must also
    map each of those nonces to its one transaction.
    """
    out = []
    spent_by: Dict[bytes, bytes] = {}
    seen = set()
    for view in views:
        for digest in view.order:
            tx = view.blocks[digest].tx
            if tx.kind != TxKind.VERIFICATION or digest in seen:
                continue
            seen.add(digest)
            if digest not in committed:
                out.append(f"verification {digest.hex()} was never committed by the benchmark")
                continue
            for nonce in committed[digest]:
                other = spent_by.setdefault(nonce, digest)
                if other != digest:
                    out.append(f"nonce {nonce.hex()} committed by two transactions")
    for view in views:
        if view.committed_nonces() != spent_by:
            out.append(f"view {view.platform} indexes committed nonces differently")
    return out
