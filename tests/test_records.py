"""Record types: every dataclass of the package is slotted."""

import dataclasses
import importlib
import inspect
import pkgutil

import crowdreg


def package_dataclasses():
    for info in pkgutil.iter_modules(crowdreg.__path__):
        module = importlib.import_module(f"crowdreg.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                yield cls


def test_every_dataclass_has_slots_and_no_instance_dict():
    classes = list(package_dataclasses())
    names = {cls.__name__ for cls in classes}
    assert {"Nonce", "GroupSig", "Transaction", "TransactionBlock", "CertVote", "Wallet", "ETokenRecord",
            "VTokenRecord", "BundleEntry", "Transcript", "IssueRecord"} <= names
    for cls in classes:
        assert "__slots__" in vars(cls), cls.__name__
        assert cls.__dictoffset__ == 0, cls.__name__  # no base gives instances a `__dict__` either
