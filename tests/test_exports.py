"""The package's public names: a deleted or renamed object must not stay
listed in __all__."""

import latticechains


def test_every_exported_name_resolves_once():
    names = latticechains.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(latticechains, name), name
