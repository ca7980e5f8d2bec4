"""A reference encoding of a verification payload, shared by the tests that
check the bytes a `VerificationPayload` keeps."""

from crowdreg.encoding import enc_bytes, enc_seq, enc_str


def reference_bytes(payload):
    """The payload's encoding, walked afresh field by field with
    `encoding`'s helpers."""

    def entry_bytes(e):
        sigs = [enc_str(g) + enc_str(s) + enc_bytes(sig.outer) + enc_bytes(sig.opening) for g, s, sig in e.group_sigs]
        return enc_bytes(e.nonce.value) + enc_bytes(e.ra_sig) + enc_bytes(e.task_digest) + enc_seq(sigs)

    bundles = (enc_str(b.task_id) + enc_seq(entry_bytes(e) for e in b.entries) for b in payload.bundles)
    return enc_str(payload.task_id) + enc_seq(bundles)
