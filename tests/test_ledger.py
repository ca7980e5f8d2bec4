"""DAG ledger records and views: shape, genesis, append rules, validation, union."""

import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from crowdreg import ledger
from crowdreg.credentials import digest, keygen, sign
from crowdreg.errors import GapError, InvalidBlockError
from crowdreg.ledger import (
    GENESIS_DIGEST,
    CertVote,
    LedgerView,
    Transaction,
    TransactionBlock,
    TxKind,
    certify,
    commit_msg,
    relevant_to,
    union_dag,
    validate_block,
)
from crowdreg.topology import FailureModel, make_topology

PLATFORMS = ("p1", "p2", "p3", "p4")


def submission(task, platforms, contributions=1):
    return Transaction(
        kind=TxKind.SUBMISSION,
        task_id=task,
        payload=f"task:{task}".encode(),
        involved_platforms=tuple(platforms),
        required_contributions=contributions,
    )


def claim(task, platforms, sub, priors):
    return Transaction(
        kind=TxKind.CLAIM,
        task_id=task,
        payload=f"claim:{task}:{len(priors)}".encode(),
        involved_platforms=tuple(platforms),
        parent_submission=sub.digest,
        prior_claims=tuple(c.digest for c in priors),
    )


def verification(task, platforms, sub, claims):
    return Transaction(
        kind=TxKind.VERIFICATION,
        task_id=task,
        payload=f"verify:{task}".encode(),
        involved_platforms=tuple(platforms),
        parent_submission=sub.digest,
        prior_claims=tuple(c.digest for c in claims),
    )


def block(tx, seq_map):
    return TransactionBlock(tx=tx, seq=tuple(sorted(seq_map.items())), commit_cert=())


def nodes(count=2):
    """A crash-failure topology of `count` platforms with f=1, every node's
    key pair, and a new dict of their public keys."""
    topology = make_topology(count, FailureModel.CRASH, f=1)
    keys = {n: keygen(n, digest(n.encode())) for n in topology.all_nodes()}
    return topology, keys, {n: kp.public for n, kp in keys.items()}


@pytest.fixture
def network():
    return nodes()


HELD = submission("t1", ("p1",))


class TestGenesis:
    def test_fresh_views_share_the_genesis_digest(self):
        a, b = LedgerView("p1", PLATFORMS), LedgerView("p2", PLATFORMS)
        assert a.blocks[GENESIS_DIGEST].digest == b.blocks[GENESIS_DIGEST].digest == GENESIS_DIGEST
        assert a.order == b.order == [GENESIS_DIGEST]

    def test_union_of_fresh_views_is_single_node(self):
        dag = union_dag([LedgerView(p, PLATFORMS) for p in PLATFORMS])
        assert set(dag.nodes) == {GENESIS_DIGEST}
        assert dag.edges == set()


class TestAppend:
    def test_internal_submission_becomes_head(self):
        v = LedgerView("p1", PLATFORMS)
        t = submission("t10", ("p1",))
        v.append_block(block(t, {"p1": 1}))
        assert v.view_parents[t.digest] == (GENESIS_DIGEST,)

    def test_gap_raises(self):
        v = LedgerView("p1", PLATFORMS)
        t = submission("t10", ("p1",))
        with pytest.raises(GapError):
            v.append_block(block(t, {"p1": 3}))

    def test_foreign_internal_block_rejected(self):
        v = LedgerView("p1", PLATFORMS)
        t = submission("t20", ("p2",))
        with pytest.raises(InvalidBlockError):
            v.append_block(block(t, {"p1": 1}))

    def test_duplicate_append_rejected(self):
        v = LedgerView("p1", PLATFORMS)
        t = submission("t10", ("p1",))
        v.append_block(block(t, {"p1": 1}))
        with pytest.raises(InvalidBlockError):
            v.append_block(block(t, {"p1": 2}))

    def test_occupied_sequence_rejected(self):
        v = LedgerView("p1", PLATFORMS)
        v.append_block(block(submission("t10", ("p1",)), {"p1": 1}))
        with pytest.raises(InvalidBlockError):
            v.append_block(block(submission("t11", ("p1",)), {"p1": 1}))
        assert v.last_seq == 1

    def test_claim_needs_its_submission(self):
        v = LedgerView("p1", PLATFORMS)
        t = submission("t10", ("p1",))
        c1 = claim("t10", ("p1",), t, [])
        with pytest.raises(InvalidBlockError):
            v.append_block(block(c1, {"p1": 1}))

    def test_fig_task_chain_replay(self):
        """t10 with three claims and one verification builds p1's chain."""
        v = LedgerView("p1", PLATFORMS)
        t10 = submission("t10", ("p1",), contributions=3)
        c1 = claim("t10", ("p1",), t10, [])
        c2 = claim("t10", ("p1",), t10, [c1])
        c3 = claim("t10", ("p1",), t10, [c1, c2])
        t10v = verification("t10", ("p1",), t10, [c1, c2, c3])
        for i, tx in enumerate([t10, c1, c2, c3, t10v], start=1):
            v.append_block(block(tx, {"p1": i}))
        assert v.view_parents[c1.digest] == (t10.digest,)
        assert v.view_parents[c2.digest] == (t10.digest, c1.digest)
        assert v.view_parents[c3.digest] == (t10.digest, c1.digest, c2.digest)
        assert v.view_parents[t10v.digest] == (t10.digest, c1.digest, c2.digest, c3.digest)

    def test_genesis_kind_block_is_not_appended(self):
        v = LedgerView("p1", PLATFORMS)
        root = Transaction(kind=TxKind.GENESIS, task_id="root", payload=b"second", involved_platforms=())
        with pytest.raises(InvalidBlockError):
            v.append_block(block(root, {"p1": 1}))
        assert v.order == [GENESIS_DIGEST]

    def test_uninvolved_verification_parents_to_genesis(self):
        v = LedgerView("p1", PLATFORMS)
        t20 = submission("t20", ("p2",))
        t20v = verification("t20", ("p2",), t20, [])
        v.append_block(block(t20v, {"p1": 1, "p2": 2}))
        assert v.view_parents[t20v.digest] == (GENESIS_DIGEST,)


def build_fig_scenario():
    """The four-platform ledger: four internal tasks plus two cross tasks."""
    tasks = {}
    tasks["t10"] = ("t10", ("p1",), 3)
    tasks["t20"] = ("t20", ("p2",), 2)
    tasks["t30"] = ("t30", ("p3",), 2)
    tasks["t40"] = ("t40", ("p4",), 2)
    tasks["t11_21"] = ("t11_21", ("p1", "p2"), 1)
    tasks["t31_41"] = ("t31_41", ("p3", "p4"), 2)
    chains = {}
    for name, (task, platforms, n) in tasks.items():
        sub = submission(task, platforms, n)
        claims = []
        for _ in range(n):
            claims.append(claim(task, platforms, sub, claims))
        ver = verification(task, platforms, sub, claims)
        chains[name] = (sub, claims, ver)
    return chains


class TestUnion:
    def test_single_view_unions_to_itself(self):
        v = LedgerView("p1", PLATFORMS)
        t = submission("t10", ("p1",))
        v.append_block(block(t, {"p1": 1}))
        dag = union_dag([v])
        assert set(dag.nodes) == set(v.blocks)
        assert dag.edges == {(t.digest, GENESIS_DIGEST)}

    def test_fig_scenario_union_structure(self):
        chains = build_fig_scenario()
        views = {p: LedgerView(p, PLATFORMS) for p in PLATFORMS}
        seqs = {p: 0 for p in PLATFORMS}

        def push(view_pid, tx):
            seqs[view_pid] += 1
            views[view_pid].append_block(block(tx, {view_pid: seqs[view_pid]}))

        # own chains first
        for name, (sub, claims, ver) in chains.items():
            for pid in sub.involved_platforms:
                push(pid, sub)
                for c in claims:
                    push(pid, c)
        # verifications: every view gets all of them, orders differ per view
        ver_order = {
            "p1": ["t10", "t20", "t40", "t30", "t11_21", "t31_41"],
            "p2": ["t20", "t10", "t11_21", "t30", "t40", "t31_41"],
            "p3": ["t30", "t40", "t20", "t31_41", "t10", "t11_21"],
            "p4": ["t40", "t30", "t31_41", "t20", "t11_21", "t10"],
        }
        for pid, names in ver_order.items():
            for name in names:
                push(pid, chains[name][2])

        dag = union_dag(list(views.values()))
        expected_nodes = {GENESIS_DIGEST}
        expected_edges = set()
        for sub, claims, ver in chains.values():
            expected_nodes.add(sub.digest)
            expected_edges.add((sub.digest, GENESIS_DIGEST))
            prior = []
            for c in claims:
                expected_nodes.add(c.digest)
                expected_edges.add((c.digest, sub.digest))
                for pc in prior:
                    expected_edges.add((c.digest, pc.digest))
                prior.append(c)
            expected_nodes.add(ver.digest)
            expected_edges.add((ver.digest, sub.digest))
            for c in claims:
                expected_edges.add((ver.digest, c.digest))
            # views not involved in the task hang its verification off genesis
            expected_edges.add((ver.digest, GENESIS_DIGEST))
        assert set(dag.nodes) == expected_nodes
        assert len(expected_nodes) == 25
        assert dag.edges == expected_edges
        # per-view projection reproduces each view's block set exactly
        for pid, view in views.items():
            assert {d for d, b in dag.nodes.items() if relevant_to(b.tx, pid)} == set(view.blocks)

    def test_union_well_formed_despite_divergent_verification_order(self):
        chains = build_fig_scenario()
        a, b = LedgerView("p1", PLATFORMS), LedgerView("p3", PLATFORMS)
        t20v, t40v = chains["t20"][2], chains["t40"][2]
        a.append_block(block(t20v, {"p1": 1}))
        a.append_block(block(t40v, {"p1": 2}))
        b.append_block(block(t40v, {"p3": 1}))
        b.append_block(block(t20v, {"p3": 2}))
        dag = union_dag([a, b])
        assert set(dag.nodes) == {GENESIS_DIGEST, t20v.digest, t40v.digest}


class TestValidate:
    def make_cert(self, tx, topology, keys, tag, body_of):
        """`certify`'s votes, each tagged `tag` and signing `body_of(digest, sender)`."""
        return tuple(
            replace(vote, tag=tag, signature=sign(keys[vote.sender].secret, body_of(tx.digest, vote.sender)))
            for vote in certify(tx.digest, topology, keys, ("p1", "p2"))
        )

    def test_valid_cross_block(self, network):
        topology, keys, publics = network
        v = LedgerView("p1", topology.platform_ids)
        tx = submission("t1", ("p1", "p2"))
        blk = TransactionBlock(tx, (("p1", 1), ("p2", 1)), certify(tx.digest, topology, keys, ("p1", "p2")))
        assert validate_block(v, blk, topology, publics)

    def test_flipped_payload_byte_detected(self, network):
        topology, keys, publics = network
        v = LedgerView("p1", topology.platform_ids)
        tx = submission("t1", ("p1", "p2"))
        cert = certify(tx.digest, topology, keys, ("p1", "p2"))
        tampered = Transaction(
            kind=tx.kind,
            task_id=tx.task_id,
            payload=tx.payload + b"\x00",
            involved_platforms=tx.involved_platforms,
            required_contributions=tx.required_contributions,
        )
        blk = TransactionBlock(tampered, (("p1", 1), ("p2", 1)), cert)
        assert not validate_block(v, blk, topology, publics)

    def test_cross_block_needs_every_involved_platform(self, network):
        topology, keys, publics = network
        v = LedgerView("p1", topology.platform_ids)
        tx = submission("t1", ("p1", "p2"))
        cert = certify(tx.digest, topology, keys, ["p1"])
        blk = TransactionBlock(tx, (("p1", 1), ("p2", 1)), cert)
        assert not validate_block(v, blk, topology, publics)

    @pytest.mark.parametrize(
        "tag, body_of",
        [
            ("abort", lambda digest, node: b"abort" + digest),
            ("commit", lambda digest, node: commit_msg(digest, "p1:n0")),
        ],
        ids=["abort-votes", "votes-naming-another-sender"],
    )
    def test_votes_must_sign_the_commit_message(self, network, tag, body_of):
        topology, keys, publics = network
        v = LedgerView("p1", topology.platform_ids)
        tx = submission("t1", ("p1", "p2"))
        cert = self.make_cert(tx, topology, keys, tag, body_of)
        blk = TransactionBlock(tx, (("p1", 1), ("p2", 1)), cert)
        assert not validate_block(v, blk, topology, publics)

    def test_platform_outside_the_topology_is_invalid(self, network):
        topology, keys, publics = network
        v = LedgerView("p1", topology.platform_ids)
        tx = submission("t1", ("p1", "p9"))
        cert = certify(tx.digest, topology, keys, ["p1"])
        blk = TransactionBlock(tx, (("p1", 1), ("p9", 1)), cert)
        assert not validate_block(v, blk, topology, publics)

    def test_unread_vote_fields_may_hold_junk(self, network):
        topology, keys, publics = network
        v = LedgerView("p1", topology.platform_ids)
        tx = submission("t1", ("p1", "p2"))
        cert = tuple(
            replace(vote, tag="junk", platform="p9", digest=b"\x00" * 32, signed_bytes=b"junk")
            for vote in certify(tx.digest, topology, keys, ("p1", "p2"))
        )
        blk = TransactionBlock(tx, (("p1", 1), ("p2", 1)), cert)
        assert validate_block(v, blk, topology, publics)

    def test_one_verify_per_vote_and_no_serialization(self, network, monkeypatch):
        topology, keys, publics = network
        v = LedgerView("p1", topology.platform_ids)
        tx = submission("t1", ("p1", "p2"))
        blk = TransactionBlock(tx, (("p1", 1), ("p2", 1)), certify(tx.digest, topology, keys, ("p1", "p2")))
        calls = {"verify": 0, "serialize": 0}

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        monkeypatch.setattr(ledger, "verify", counted("verify", ledger.verify))
        monkeypatch.setattr(Transaction, "serialize", counted("serialize", Transaction.serialize))
        assert validate_block(v, blk, topology, publics)
        assert calls == {"verify": len(blk.commit_cert), "serialize": 0}

    def test_vote_from_a_node_outside_the_topology_or_without_a_key_is_refused(self, network):
        topology, keys, publics = network
        v = LedgerView("p1", topology.platform_ids)
        tx = submission("t1", ("p1", "p2"))
        seq = (("p1", 1), ("p2", 1))
        cert = certify(tx.digest, topology, keys, ("p1", "p2"))
        assert validate_block(v, TransactionBlock(tx, seq, cert), topology, publics)
        # a valid signature by a node that the topology does not list
        outsider = keygen("p9:n0", digest(b"p9:n0"))
        body = commit_msg(tx.digest, "p9:n0")
        extra = CertVote("commit", "p9:n0", "p1", tx.digest, body, sign(outsider.secret, body))
        with_outsider = TransactionBlock(tx, seq, cert + (extra,))
        assert not validate_block(v, with_outsider, topology, {**publics, "p9:n0": outsider.public})
        # a listed node whose key is missing
        keyless = {n: k for n, k in publics.items() if n != cert[0].sender}
        assert not validate_block(v, TransactionBlock(tx, seq, cert), topology, keyless)

    def test_involved_platform_named_twice_is_invalid(self):
        """Refused when the transaction is built; before, only `certified`'s
        quorum arithmetic refused it."""
        with pytest.raises(InvalidBlockError, match="not a tuple of distinct str"):
            submission("t1", ("p1", "p1"))

    @pytest.mark.parametrize(
        "kind, platforms",
        [(TxKind.GENESIS, ()), (TxKind.GENESIS, ("p1",)), (TxKind.SUBMISSION, ())],
    )
    def test_genesis_kind_or_platformless_block_is_invalid(self, network, kind, platforms):
        """Neither may become a second root, certified by every platform or not."""
        topology, keys, publics = network
        v = LedgerView("p1", topology.platform_ids)
        tx = Transaction(kind=kind, task_id="root", payload=b"second", involved_platforms=platforms)
        for cert in ((), certify(tx.digest, topology, keys, ("p1", "p2"))):
            assert not validate_block(v, TransactionBlock(tx, (("p1", 1),), cert), topology, publics)

    def test_verification_block_needs_two_thirds_of_platforms(self):
        topology, keys, publics = nodes(4)
        v = LedgerView("p1", topology.platform_ids)
        sub = submission("t1", ("p1",))
        v.append_block(block(sub, {"p1": 1}))
        ver = verification("t1", ("p1",), sub, [])
        quorum = topology.global_platform_quorum()
        assert quorum == 3
        good = TransactionBlock(
            ver,
            tuple((p, 2) for p in topology.platform_ids),
            certify(ver.digest, topology, keys, ["p1", "p2", "p3"]),
        )
        assert validate_block(v, good, topology, publics)
        thin = TransactionBlock(
            ver,
            tuple((p, 2) for p in topology.platform_ids),
            certify(ver.digest, topology, keys, ["p1", "p2"]),
        )
        assert not validate_block(v, thin, topology, publics)


class TestAdmission:
    """`refusal` states the view rules once: `append_block` raises its error
    and `validate_block` refuses exactly those blocks."""

    OTHER = submission("t2", ("p1",))
    CASES = {
        "held": (HELD, (("p1", 2),), InvalidBlockError),
        "irrelevant": (submission("t3", ("p2",)), (("p1", 2), ("p2", 1)), InvalidBlockError),
        "no-seq": (OTHER, (("p2", 1),), InvalidBlockError),
        "occupied-seq": (OTHER, (("p1", 1),), InvalidBlockError),
        "gap": (OTHER, (("p1", 3),), GapError),
        "no-parents": (Transaction(TxKind.GENESIS, "root", b"second", ()), (("p1", 2),), InvalidBlockError),
        "missing-parents": (claim("t4", ("p1",), submission("t4", ("p1",)), []), (("p1", 2),), InvalidBlockError),
        "uninvolved-verification": (verification("t5", ("p2",), submission("t5", ("p2",)), []), (("p1", 2),), None),
        "next": (OTHER, (("p1", 2),), None),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_validate_block_refuses_exactly_what_append_block_raises_on(self, network, name):
        tx, seq, error = self.CASES[name]
        topology, keys, publics = network
        v = LedgerView("p1", topology.platform_ids)
        v.append_block(block(HELD, {"p1": 1}))
        blk = TransactionBlock(tx, seq, certify(tx.digest, topology, keys, ("p1", "p2")))
        assert type(v.refusal(blk)) is (error or type(None))
        assert validate_block(v, blk, topology, publics) == (error is None)
        if error is None:
            v.append_block(blk)
            assert v.last_seq == 2
        else:
            with pytest.raises(InvalidBlockError) as raised:
                v.append_block(blk)
            assert type(raised.value) is error
            assert v.last_seq == 1


def well_shaped_tx(involved, parent, claims):
    """The shape rule of `Transaction`, written with isinstance."""
    return (
        isinstance(involved, tuple) and all(isinstance(p, str) for p in involved)
        and len(set(involved)) == len(involved)
        and isinstance(parent, bytes) and isinstance(claims, tuple) and all(isinstance(c, bytes) for c in claims)
    )


def well_shaped_block(seq, cert):
    """The shape rule of `TransactionBlock`, written with isinstance."""
    pairs = isinstance(seq, tuple) and all(
        isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], str)
        and isinstance(e[1], int) and not isinstance(e[1], bool) and e[1] >= 0
        for e in seq
    )
    return (
        pairs and len({platform for platform, _ in seq}) == len(seq)
        and isinstance(cert, tuple) and all(isinstance(vote, CertVote) for vote in cert)
    )


# Each turns `certify`'s votes into a certificate: four well shaped, then four not.
CERTIFICATES = {
    "votes": lambda votes: votes,
    "none": lambda votes: (),
    "one-vote": lambda votes: votes[:1],
    "junk-signatures": lambda votes: tuple(replace(v, signature=b"\x00" * len(v.signature)) for v in votes),
    "a-list": list,
    "a-junk-vote": lambda votes: votes + (None,),
    "a-dict": lambda votes: {v.sender: v for v in votes},
    "a-str": lambda votes: "votes",
}
PLATFORM = st.sampled_from(["p1", "p2", "p3"])
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(allow_nan=False), st.text(max_size=2),
    st.binary(max_size=2),
)


def shapes(element):
    """Up to three `element`s in a tuple or a list, a dict of them, or junk."""
    items = st.lists(element, max_size=3)
    return st.one_of(items.map(tuple), items, st.dictionaries(PLATFORM, element, max_size=2), JUNK)


def mostly(good, bad):
    """A value of `good` about seven times in eight, else one of `bad`."""
    return st.sampled_from(range(8)).flatmap(lambda i: bad if i == 7 else good)


INVOLVED = mostly(st.lists(PLATFORM, max_size=3, unique=True).map(tuple), shapes(PLATFORM | JUNK))
PARENT = mostly(st.sampled_from([HELD.digest, b""]), JUNK)
CLAIMS = mostly(st.lists(st.sampled_from([HELD.digest, b"\x01" * 32])).map(tuple), shapes(st.binary() | JUNK))
# A well-shaped `seq` numbers p1, mostly at 2, the next number of the view the test builds.
SEQ = mostly(
    st.dictionaries(PLATFORM, st.integers(0, 3), max_size=2).map(lambda n: tuple(sorted({"p1": 2, **n}.items()))),
    shapes(st.tuples(PLATFORM, st.integers(-1, 3)) | st.tuples(PLATFORM | JUNK, JUNK) | st.tuples(PLATFORM) | JUNK),
)
CERTIFICATE = mostly(st.sampled_from(list(CERTIFICATES)[:4]), st.sampled_from(list(CERTIFICATES)[4:]))


class TestShape:
    """A record's shape is checked once, when it is built; a malformed field
    raises InvalidBlockError, so no validator sees one and no field can change
    after its digest or certificate was checked."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"seq": [("p1", 1)]},
            {"seq": (("p1", 2), ("p1", 1))},
            {"commit_cert": "a-list"},
            {"involved_platforms": ["p1"]},
            {"prior_claims": [HELD.digest]},
        ],
        ids=["seq-a-list", "seq-naming-a-platform-twice", "cert-a-list", "involved-a-list", "prior-claims-a-list"],
    )
    def test_a_field_that_could_change_or_mislead_later_is_refused_when_built(self, network, fields):
        """Before, each was built: a `seq` list changed after admission was
        appended at one number and dumped at another, a repeated platform was
        admitted at its last number, a certificate list could be forged after
        `certified`, an involved-platforms list changed after the digest sent
        a submission to the wrong view, and a prior-claims list made `refusal`
        raise a bare TypeError."""
        topology, keys, _ = network
        tx_fields = {k: v for k, v in fields.items() if k in ("involved_platforms", "prior_claims")}
        with pytest.raises(InvalidBlockError):
            tx = Transaction(TxKind.CLAIM, "t1", b"claim", **{"involved_platforms": ("p1",), **tx_fields})
            cert = CERTIFICATES[fields.get("commit_cert", "votes")](certify(tx.digest, topology, keys, ("p1",)))
            TransactionBlock(tx, fields.get("seq", (("p1", 2),)), cert)

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from([TxKind.SUBMISSION, TxKind.CLAIM, TxKind.VERIFICATION]),
        involved=INVOLVED, parent=PARENT, claims=CLAIMS, seq=SEQ, cert=CERTIFICATE,
    )
    @example(TxKind.SUBMISSION, ("p1",), b"", (), (("p1", "2"),), "votes")  # a str number
    @example(TxKind.SUBMISSION, ("p1",), b"", (), (("p1",),), "votes")  # an entry that is not a pair
    @example(TxKind.SUBMISSION, ("p1",), b"", (), (("p1", 2.0),), "votes")  # a float number
    @example(TxKind.SUBMISSION, ("p1",), b"", (), (("p1", 2), ("p2", True)), "votes")  # a bool number
    @example(TxKind.SUBMISSION, ("p1",), b"", (), (("p1", 2), (None, 1)), "votes")  # a platform that is not a str
    @example(TxKind.SUBMISSION, ("p1",), b"", (), {"p1": 2}, "votes")  # a dict
    @example(TxKind.SUBMISSION, ("p1",), b"", (), (("p1", 2), ("p2", -1)), "votes")  # a negative number
    @example(TxKind.SUBMISSION, ("p1",), b"", (), (("p1", 2),), "a-junk-vote")  # a vote that is not a CertVote
    def test_a_record_is_refused_when_built_or_validated_as_it_is_appended(
        self, kind, involved, parent, claims, seq, cert
    ):
        """Construction returns a record or raises InvalidBlockError, exactly
        when a field breaks the shape rule; `validate_block` then refuses
        exactly the blocks `append_block` raises on, and those it does not
        certify."""
        topology, keys, publics = nodes()
        view = LedgerView("p1", topology.platform_ids)
        view.append_block(block(HELD, {"p1": 1}))
        if not well_shaped_tx(involved, parent, claims):
            with pytest.raises(InvalidBlockError):
                Transaction(kind, "t2", b"x", involved, parent_submission=parent, prior_claims=claims)
            return
        tx = Transaction(kind, "t2", b"x", involved, parent_submission=parent, prior_claims=claims)
        votes = CERTIFICATES[cert](certify(tx.digest, topology, keys, ("p1", "p2")))
        if not well_shaped_block(seq, votes):
            with pytest.raises(InvalidBlockError):
                TransactionBlock(tx, seq, votes)
            return
        blk = TransactionBlock(tx, seq, votes)
        error = view.refusal(blk)
        validated = validate_block(view, blk, topology, publics)
        assert validated == (error is None and ledger.certified(blk, topology, publics))
        if error is None:
            view.append_block(blk)
            assert view.last_seq == 2
        else:
            with pytest.raises(InvalidBlockError) as raised:
                view.append_block(blk)
            assert type(raised.value) is type(error)
            assert view.last_seq == 1


class TestMemos:
    """A block remembers the topology and voter keys its certificate
    verified under, and a view the digest, `seq` and `last_seq` of the last
    block it admitted; any other input is checked again."""

    @pytest.fixture
    def setup(self, network):
        topology, keys, publics = network
        tx = submission("t1", ("p1", "p2"))
        blk = TransactionBlock(tx, (("p1", 1), ("p2", 1)), certify(tx.digest, topology, keys, ("p1", "p2")))
        return topology, publics, blk

    @pytest.fixture
    def verifies(self, monkeypatch):
        calls = []
        real = ledger.verify

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ledger, "verify", counted)
        return calls

    @pytest.fixture
    def refusals(self, monkeypatch):
        calls = []
        real = LedgerView.refusal

        def counted(view, blk):
            calls.append((view.platform, blk))
            return real(view, blk)

        monkeypatch.setattr(LedgerView, "refusal", counted)
        return calls

    def test_validating_on_every_view_then_appending_checks_once(self, setup, verifies, refusals):
        topology, publics, blk = setup
        views = [LedgerView(p, topology.platform_ids) for p in ("p1", "p2")]
        assert all(validate_block(v, blk, topology, publics) for v in views)
        for v in views:
            v.append_block(blk)
        assert len(verifies) == len(blk.commit_cert) == 4
        assert refusals == [("p1", blk), ("p2", blk)]

    @pytest.mark.parametrize("change", ["replaced", "removed"])
    def test_a_voter_key_changed_in_the_same_dict_fails(self, setup, change):
        topology, publics, blk = setup
        assert ledger.certified(blk, topology, publics)
        voter = blk.commit_cert[-1].sender
        if change == "replaced":
            publics[voter] = keygen("other", digest(b"other")).public
        else:
            del publics[voter]
        assert not ledger.certified(blk, topology, publics)

    def test_an_equal_new_topology_verifies_the_votes_again(self, setup, verifies):
        topology, publics, blk = setup
        assert ledger.certified(blk, topology, publics)
        assert ledger.certified(blk, topology, publics)
        assert len(verifies) == 4
        assert ledger.certified(blk, make_topology(2, FailureModel.CRASH, f=1), publics)
        assert len(verifies) == 8

    def test_a_replaced_certificate_is_checked_afresh(self, setup):
        topology, publics, blk = setup
        assert ledger.certified(blk, topology, publics)
        forged = tuple(replace(vote, signature=b"\x00" * len(vote.signature)) for vote in blk.commit_cert)
        assert not ledger.certified(replace(blk, commit_cert=forged), topology, publics)
        assert replace(blk, seq=(("p1", 2), ("p2", 2))).certified_under is None

    def test_false_is_not_remembered(self, setup, verifies):
        topology, publics, blk = setup
        keyless = {n: k for n, k in publics.items() if n != blk.commit_cert[-1].sender}
        assert not ledger.certified(blk, topology, keyless)
        assert blk.certified_under is None
        assert ledger.certified(blk, topology, publics)
        assert len(verifies) == 3 + 4

    def test_a_view_that_changed_since_validation_asks_again(self, setup, refusals):
        topology, publics, blk = setup
        v = LedgerView("p1", topology.platform_ids)
        assert validate_block(v, blk, topology, publics)
        v.append_block(block(submission("t2", ("p1",)), {"p1": 1}))
        with pytest.raises(InvalidBlockError, match="sequence 1 already occupied"):
            v.append_block(blk)
        assert [b for _, b in refusals].count(blk) == 2
        assert v.last_seq == 1

    def test_a_block_appended_after_validation_is_not_appended_twice(self, setup):
        topology, publics, blk = setup
        v = LedgerView("p1", topology.platform_ids)
        assert validate_block(v, blk, topology, publics)
        v.append_block(blk)
        with pytest.raises(InvalidBlockError, match="block already appended"):
            v.append_block(blk)
        assert v.last_seq == 1 and v.order.count(blk.digest) == 1

    @pytest.mark.parametrize(
        "seq, asked", [((("p1", 1), ("p2", 1)), 1), ((("p1", 1), ("p2", 2)), 2)], ids=["equal", "another-seq"]
    )
    def test_a_block_equal_to_the_admitted_one_is_not_asked_again(self, setup, refusals, seq, asked):
        """The memo is keyed by value: a block built anew from equal values
        is admitted by the first block's refusal, and one with another `seq`
        is asked again (a moved `last_seq` is
        `test_a_view_that_changed_since_validation_asks_again`)."""
        topology, publics, blk = setup
        v = LedgerView("p1", topology.platform_ids)
        again = TransactionBlock(submission("t1", ("p1", "p2")), tuple(list(seq)), blk.commit_cert)
        assert again.tx is not blk.tx and again.seq is not blk.seq
        assert validate_block(v, blk, topology, publics)
        v.append_block(again)
        assert [b is again for _, b in refusals] == [False] + [True] * (asked - 1)
        assert v.last_seq == 1 and v.blocks[blk.digest] is again

    def test_a_replaced_copy_of_an_admitted_block_is_not_asked_again(self, setup, refusals):
        """The certified copy of an unsigned block has the same digest and
        `seq`, so it is admitted by the unsigned block's refusal."""
        topology, publics, blk = setup
        v = LedgerView("p1", topology.platform_ids)
        unsigned = replace(blk, commit_cert=())
        assert v.refusal(unsigned) is None
        v.append_block(blk)
        assert refusals == [("p1", unsigned)]
        assert v.last_seq == 1 and v.blocks[blk.digest] is blk


class TestDump:
    def test_dump_lines_are_json_with_expected_fields(self):
        v = LedgerView("p1", PLATFORMS)
        t = submission("t10", ("p1",))
        v.append_block(block(t, {"p1": 1}))
        rows = [json.loads(line) for line in v.dump_lines()]
        assert rows[0]["kind"] == "genesis"
        assert rows[1]["kind"] == "submission"
        assert set(rows[1]) == {"digest", "kind", "task", "seq", "parents", "cert_count"}
        assert rows[1]["seq"] == {"p1": 1}
