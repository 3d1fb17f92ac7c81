import galmag

SUBMODULES = ("errors", "galilean", "frenet", "magnetic", "oracle")


def test_package_exports_exactly_the_submodules_public_names():
    # the benchmark's tracer finds the functions it wraps through each
    # submodule's __all__, so the package may not export a name they lack
    parts = [getattr(galmag, name).__all__ for name in SUBMODULES]
    assert len(galmag.__all__) == len(set(galmag.__all__))
    assert set(galmag.__all__) == set().union(*parts)
    assert sum(map(len, parts)) == len(galmag.__all__)
    for module, names in zip(SUBMODULES, parts):
        for name in names:
            assert getattr(galmag, name) is getattr(getattr(galmag, module), name)
