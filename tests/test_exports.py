"""The package's exports: every name in `tanglev.__all__` exists, so a
deleted function cannot leave a stale export, and a star import binds
exactly `__all__`."""

import tanglev


def test_every_export_resolves():
    missing = [name for name in tanglev.__all__
               if not hasattr(tanglev, name)]
    assert missing == []
    assert len(set(tanglev.__all__)) == len(tanglev.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tanglev import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tanglev.__all__)
