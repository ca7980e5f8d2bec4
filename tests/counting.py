"""One call counter for the tests that count or record calls: the signs,
verifies and view refusals that the op-count tests gate on. Not collected
by pytest."""

from collections import Counter


class Calls(Counter):
    """Calls per name, with `args[name]` listing each call's positional
    arguments in call order."""

    def __init__(self):
        super().__init__()
        self.args = {}

    def clear(self):
        """Empty both the counts and the argument lists, in place."""
        super().clear()
        for args in self.args.values():
            args.clear()


def count_calls(monkeypatch, names):
    """The `Calls` to each `(owner, name)` of `names`, where the owner is a
    module or a class, patched until `monkeypatch` is undone. Owners that
    share a name share its count and its argument list."""
    calls = Calls()
    for owner, name in names:
        def counted(*args, _real=getattr(owner, name), _args=calls.args.setdefault(name, []), _name=name):
            calls[_name] += 1
            _args.append(args)
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls
