"""The package's top-level names."""

import grql


def test_submodule_names_are_the_submodules():
    # the package must not shadow a submodule with a function of its name
    import grql.desugar as D
    import grql.serialize as S

    assert D.MAX_BINDERS > 0
    assert S.to_json_text([1]) == "[1]"


def test_every_exported_name_resolves():
    assert all(hasattr(grql, name) for name in grql.__all__)
