import hashnet


def test_all_names_resolve_once():
    names = hashnet.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(hashnet, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hashnet import *", namespace)
    assert set(hashnet.__all__) <= set(namespace)
