"""The package's export list names only things that exist."""

import d2dcache


def test_every_export_resolves():
    assert len(set(d2dcache.__all__)) == len(d2dcache.__all__)
    for name in d2dcache.__all__:
        assert hasattr(d2dcache, name), name
