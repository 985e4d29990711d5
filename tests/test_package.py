import types

import infodyn


def test_all_names_resolve():
    missing = [name for name in infodyn.__all__ if not hasattr(infodyn, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(infodyn.__all__) == len(set(infodyn.__all__))


def test_all_lists_every_public_name():
    # Submodules are reached as attributes, not exported by name.
    public = {
        name for name, value in vars(infodyn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(infodyn.__all__)) == []
